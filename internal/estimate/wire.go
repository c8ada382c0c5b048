package estimate

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
)

// GroupPartial is the wire format of distributed scatter-gather: shard
// processes serve their partials and the coordinator merges them. There
// are two encodings, and both round-trip every field bit-exactly — the
// coordinator's merged state must be indistinguishable from an
// in-process merge.
//
// The binary frame (EncodePartials / DecodePartials) is what a
// coordinator asks for and a shard answers in; see DESIGN §5.4 for the
// negotiation. JSON is what everything else gets — curl, an older peer —
// and what the tests use as the oracle for the frame.
//
// encoding/json rejects non-finite float64 values, but an empty partial
// legitimately holds Lo = +Inf, Hi = −Inf (the min/max merge identity),
// so in JSON every float field travels as a wireFloat: finite values
// encode as ordinary JSON numbers, non-finite ones as the strings
// "+Inf", "-Inf" and "NaN".

// wireFloat is a float64 whose JSON encoding survives non-finite values.
type wireFloat float64

// MarshalJSON encodes finite values as numbers and ±Inf/NaN as strings.
func (f wireFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON accepts both encodings produced by MarshalJSON.
func (f *wireFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = wireFloat(math.Inf(1))
		case "-Inf":
			*f = wireFloat(math.Inf(-1))
		case "NaN":
			*f = wireFloat(math.NaN())
		default:
			return fmt.Errorf("estimate: bad non-finite float literal %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = wireFloat(v)
	return nil
}

// wirePartial mirrors GroupPartial field for field with wire-safe
// floats and stable JSON names. TestPartialWireCoversEveryField fails
// when GroupPartial gains a field that either encoding drops.
type wirePartial struct {
	Key           string    `json:"key"`
	N             int       `json:"n"`
	ScaledSum     wireFloat `json:"scaled_sum"`
	ScaledCount   wireFloat `json:"scaled_count"`
	SumVar        wireFloat `json:"sum_var"`
	CountVar      wireFloat `json:"count_var"`
	HTSumVar      wireFloat `json:"ht_sum_var"`
	HTSumCountCov wireFloat `json:"ht_sum_count_cov"`
	Lo            wireFloat `json:"lo"`
	Hi            wireFloat `json:"hi"`
	SparseN       int       `json:"sparse_n,omitempty"`
	SparseCount   wireFloat `json:"sparse_count"`
	ZeroN         int       `json:"zero_n,omitempty"`
	ZeroScaled    wireFloat `json:"zero_scaled"`
	// Hybrid exact mass; absent in partials from pre-hybrid shards and
	// decodes as zero there, which merges as "no exact coverage". Pointers
	// so that "absent" means exactly +0: omitempty on the float itself
	// would also drop −0.
	ExactSum   *wireFloat `json:"exact_sum,omitempty"`
	ExactCount *wireFloat `json:"exact_count,omitempty"`
}

// unlessPlusZero returns f for the wire, or nil (field omitted) when f
// is +0, the value an absent field decodes to.
func unlessPlusZero(f float64) *wireFloat {
	if math.Float64bits(f) == 0 {
		return nil
	}
	return (*wireFloat)(&f)
}

// orZero is the inverse: an absent field is +0.
func orZero(f *wireFloat) float64 {
	if f == nil {
		return 0
	}
	return float64(*f)
}

// MarshalJSON encodes the partial with non-finite-safe floats.
func (p GroupPartial) MarshalJSON() ([]byte, error) {
	return json.Marshal(wirePartial{
		Key:           p.Key,
		N:             p.N,
		ScaledSum:     wireFloat(p.ScaledSum),
		ScaledCount:   wireFloat(p.ScaledCount),
		SumVar:        wireFloat(p.SumVar),
		CountVar:      wireFloat(p.CountVar),
		HTSumVar:      wireFloat(p.HTSumVar),
		HTSumCountCov: wireFloat(p.HTSumCountCov),
		Lo:            wireFloat(p.Lo),
		Hi:            wireFloat(p.Hi),
		SparseN:       p.SparseN,
		SparseCount:   wireFloat(p.SparseCount),
		ZeroN:         p.ZeroN,
		ZeroScaled:    wireFloat(p.ZeroScaled),
		ExactSum:      unlessPlusZero(p.ExactSum),
		ExactCount:    unlessPlusZero(p.ExactCount),
	})
}

// UnmarshalJSON is the inverse of MarshalJSON. Absent fields decode as
// their zero value except Lo/Hi, which default to the empty-partial
// identity (+Inf, −Inf) so a truncated record cannot silently shrink a
// merged range.
func (p *GroupPartial) UnmarshalJSON(b []byte) error {
	w := wirePartial{Lo: wireFloat(math.Inf(1)), Hi: wireFloat(math.Inf(-1))}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*p = GroupPartial{
		Key:           w.Key,
		N:             w.N,
		ScaledSum:     float64(w.ScaledSum),
		ScaledCount:   float64(w.ScaledCount),
		SumVar:        float64(w.SumVar),
		CountVar:      float64(w.CountVar),
		HTSumVar:      float64(w.HTSumVar),
		HTSumCountCov: float64(w.HTSumCountCov),
		Lo:            float64(w.Lo),
		Hi:            float64(w.Hi),
		SparseN:       w.SparseN,
		SparseCount:   float64(w.SparseCount),
		ZeroN:         w.ZeroN,
		ZeroScaled:    float64(w.ZeroScaled),
		ExactSum:      orZero(w.ExactSum),
		ExactCount:    orZero(w.ExactCount),
	}
	return nil
}

// PartialsContentType is the media type of the binary partials frame. A
// coordinator lists it in Accept; a shard that answers in it says so in
// Content-Type.
const PartialsContentType = "application/x-congress-partials"

// The binary frame, all integers little-endian:
//
//	"cgp" 0x01        magic and layout version
//	u32 count         records that follow
//	f64 elapsed_ms    the shard's scan time
//	count × record:
//	  u32 key length, key bytes
//	  i64 N, SparseN, ZeroN
//	  f64 ScaledSum, ScaledCount, SumVar, CountVar, HTSumVar,
//	      HTSumCountCov, Lo, Hi, SparseCount, ZeroScaled, ExactSum,
//	      ExactCount
//	u32 CRC32C        over every byte before it
//
// Floats travel as their IEEE-754 bits, so ±Inf, NaN payloads and −0
// need no special case.
const (
	frameMagic      = "cgp\x01"
	frameHeaderLen  = len(frameMagic) + 4 + 8
	frameTrailerLen = 4
	recordFixedLen  = 4 + 3*8 + 12*8 // a record with an empty key
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// EncodePartials renders parts and the shard's elapsed time as one
// binary frame, in a single buffer sized up front from the key lengths.
func EncodePartials(parts []GroupPartial, elapsedMS float64) []byte {
	size := frameHeaderLen + frameTrailerLen + len(parts)*recordFixedLen
	for i := range parts {
		size += len(parts[i].Key)
	}
	le := binary.LittleEndian
	b := make([]byte, 0, size)
	b = append(b, frameMagic...)
	b = le.AppendUint32(b, uint32(len(parts)))
	b = le.AppendUint64(b, math.Float64bits(elapsedMS))
	for i := range parts {
		p := &parts[i]
		b = le.AppendUint32(b, uint32(len(p.Key)))
		b = append(b, p.Key...)
		for _, n := range [...]int{p.N, p.SparseN, p.ZeroN} {
			b = le.AppendUint64(b, uint64(int64(n)))
		}
		for _, f := range [...]float64{
			p.ScaledSum, p.ScaledCount, p.SumVar, p.CountVar, p.HTSumVar,
			p.HTSumCountCov, p.Lo, p.Hi, p.SparseCount, p.ZeroScaled,
			p.ExactSum, p.ExactCount,
		} {
			b = le.AppendUint64(b, math.Float64bits(f))
		}
	}
	return le.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// DecodePartials is the inverse of EncodePartials. It accepts exactly
// the frames EncodePartials can produce: a frame that is short, carries
// another magic or version, fails its checksum, claims more records than
// its length can hold, or has bytes left over is an error, never a
// shorter answer. The record count is checked against the frame length
// before anything is allocated for it.
func DecodePartials(b []byte) (parts []GroupPartial, elapsedMS float64, err error) {
	if len(b) < frameHeaderLen+frameTrailerLen {
		return nil, 0, fmt.Errorf("estimate: partials frame: %d bytes is shorter than an empty frame", len(b))
	}
	if string(b[:len(frameMagic)]) != frameMagic {
		return nil, 0, fmt.Errorf("estimate: partials frame: magic/version %q, want %q", b[:len(frameMagic)], frameMagic)
	}
	le := binary.LittleEndian
	body := b[:len(b)-frameTrailerLen]
	if got, want := crc32.Checksum(body, castagnoli), le.Uint32(b[len(body):]); got != want {
		return nil, 0, fmt.Errorf("estimate: partials frame: checksum %08x, frame says %08x", got, want)
	}
	count := le.Uint32(body[len(frameMagic):])
	elapsedMS = math.Float64frombits(le.Uint64(body[len(frameMagic)+4:]))
	body = body[frameHeaderLen:]
	if uint64(count) > uint64(len(body)/recordFixedLen) {
		return nil, 0, fmt.Errorf("estimate: partials frame: %d records cannot fit in %d bytes", count, len(body))
	}
	parts = make([]GroupPartial, count)
	for i := range parts {
		if len(body) < recordFixedLen {
			return nil, 0, fmt.Errorf("estimate: partials frame: record %d truncated", i)
		}
		klen := le.Uint32(body)
		if uint64(klen) > uint64(len(body)-recordFixedLen) {
			return nil, 0, fmt.Errorf("estimate: partials frame: record %d key length %d overruns the frame", i, klen)
		}
		p := &parts[i]
		body = body[4:]
		p.Key = string(body[:klen])
		body = body[klen:]
		for j, dst := range [...]*int{&p.N, &p.SparseN, &p.ZeroN} {
			v := int64(le.Uint64(body[8*j:]))
			if int64(int(v)) != v {
				return nil, 0, fmt.Errorf("estimate: partials frame: record %d count %d overflows int", i, v)
			}
			*dst = int(v)
		}
		body = body[3*8:]
		for j, dst := range [...]*float64{
			&p.ScaledSum, &p.ScaledCount, &p.SumVar, &p.CountVar, &p.HTSumVar,
			&p.HTSumCountCov, &p.Lo, &p.Hi, &p.SparseCount, &p.ZeroScaled,
			&p.ExactSum, &p.ExactCount,
		} {
			*dst = math.Float64frombits(le.Uint64(body[8*j:]))
		}
		body = body[12*8:]
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("estimate: partials frame: %d bytes after the last record", len(body))
	}
	return parts, elapsedMS, nil
}
