package estimate

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/approxdb/congress/internal/interval"
)

// wireCodecs are the two encodings of []GroupPartial; every round-trip
// property below must hold through each.
var wireCodecs = []struct {
	name string
	ship func(t *testing.T, parts []GroupPartial) []GroupPartial
}{
	{"json", func(t *testing.T, parts []GroupPartial) []GroupPartial {
		t.Helper()
		b, err := json.Marshal(parts)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var out []GroupPartial
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		return out
	}},
	{"binary", func(t *testing.T, parts []GroupPartial) []GroupPartial {
		t.Helper()
		out, _, err := DecodePartials(EncodePartials(parts, 0))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return out
	}},
}

// partialsBitEqual compares every field of GroupPartial, floats by bit
// pattern so NaN == NaN and ±0, ±Inf are distinguished — the round-trip
// guarantee is bit-exactness, not mere numeric equality. It walks the
// struct by reflection, so a field added later is compared without
// anyone remembering to list it here.
func partialsBitEqual(t *testing.T, a, b GroupPartial) {
	t.Helper()
	fieldsBitEqual(t, reflect.ValueOf(a), reflect.ValueOf(b), a, b)
}

func fieldsBitEqual(t *testing.T, va, vb reflect.Value, a, b GroupPartial) {
	t.Helper()
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Struct: // the embedded interval.Moments
			fieldsBitEqual(t, fa, fb, a, b)
		case reflect.String, reflect.Int:
			if !fa.Equal(fb) {
				t.Fatalf("%s diverged: %v != %v\n  a=%+v\n  b=%+v", name, fa, fb, a, b)
			}
		case reflect.Float64:
			if ba, bb := math.Float64bits(fa.Float()), math.Float64bits(fb.Float()); ba != bb {
				t.Fatalf("%s diverged: %v (%016x) != %v (%016x)\n  a=%+v\n  b=%+v", name, fa, ba, fb, bb, a, b)
			}
		default:
			t.Fatalf("GroupPartial.%s has kind %s, which the wire tests do not know how to compare", name, fa.Kind())
		}
	}
}

func slicesBitEqual(t *testing.T, a, b []GroupPartial) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("lengths diverged: %d != %d", len(a), len(b))
	}
	for i := range a {
		partialsBitEqual(t, a[i], b[i])
	}
}

// fillPartial sets every field of a GroupPartial from the generators.
func fillPartial(t *testing.T, str func(i int) string, num func(i int) int, flt func(i int) float64) GroupPartial {
	t.Helper()
	var p GroupPartial
	i := 0 // running index over the leaf fields, so each gets its own value
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for j := 0; j < v.NumField(); j++ {
			switch f := v.Field(j); f.Kind() {
			case reflect.Struct: // the embedded interval.Moments
				fill(f)
				continue
			case reflect.String:
				f.SetString(str(i))
			case reflect.Int:
				f.SetInt(int64(num(i)))
			case reflect.Float64:
				f.SetFloat(flt(i))
			default:
				t.Fatalf("GroupPartial.%s has kind %s, which the wire tests do not know how to fill", v.Type().Field(j).Name, f.Kind())
			}
			i++
		}
	}
	fill(reflect.ValueOf(&p).Elem())
	return p
}

// TestPartialWireCoversEveryField is what keeps the two hand-written
// field lists in wire.go in step with GroupPartial: every field gets a
// distinct non-zero value, and a field either encoding forgets comes
// back as zero.
func TestPartialWireCoversEveryField(t *testing.T) {
	in := fillPartial(t,
		func(i int) string { return "key" },
		func(i int) int { return 100 + i },
		func(i int) float64 { return 0.5 + float64(i) })
	for _, c := range wireCodecs {
		t.Run(c.name, func(t *testing.T) {
			partialsBitEqual(t, in, c.ship(t, []GroupPartial{in})[0])
		})
	}
}

// TestPartialWireRoundTripRandom is the round-trip property test: random
// finite partials — including denormals, negative zero and extreme
// magnitudes, in every field — survive encode/decode bit-exactly.
func TestPartialWireRoundTripRandom(t *testing.T) {
	for _, c := range wireCodecs {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20260808))
			randFloat := func(int) float64 {
				switch rng.Intn(6) {
				case 0:
					return 0
				case 1:
					return math.Copysign(0, -1)
				case 2:
					return rng.NormFloat64() * 1e12
				case 3:
					return rng.NormFloat64() * 1e-12
				case 4:
					return math.MaxFloat64 * rng.Float64()
				default:
					return rng.NormFloat64()
				}
			}
			in := make([]GroupPartial, 500)
			for i := range in {
				in[i] = fillPartial(t,
					func(int) string { return "g" + string(rune('a'+rng.Intn(26))) },
					func(int) int { return rng.Intn(1 << 20) },
					randFloat)
			}
			slicesBitEqual(t, in, c.ship(t, in))
		})
	}
}

// TestPartialWireNegativeZeroExact pins the hybrid fields' sign bit: they
// were tagged omitempty, and −0 counts as empty.
func TestPartialWireNegativeZeroExact(t *testing.T) {
	in := GroupPartial{Key: "g", Moments: interval.Moments{ExactSum: math.Copysign(0, -1), ExactCount: math.Copysign(0, -1)}}
	for _, c := range wireCodecs {
		t.Run(c.name, func(t *testing.T) {
			partialsBitEqual(t, in, c.ship(t, []GroupPartial{in})[0])
		})
	}
}

// TestPartialWireNonFinite pins the part encoding/json cannot do alone:
// the empty partial's (+Inf, −Inf) range — and NaN — must survive the
// wire, since zero-contribution groups are exactly what distributed
// merges must not lose.
func TestPartialWireNonFinite(t *testing.T) {
	empty := emptyPartial("ghost")
	empty.ZeroN = 7
	empty.ZeroScaled = 1234.5
	nan := GroupPartial{Key: "n", Moments: interval.Moments{Lo: math.NaN(), Hi: math.Inf(1), ScaledSum: math.Inf(-1)}}
	in := []GroupPartial{empty, nan}
	for _, c := range wireCodecs {
		t.Run(c.name, func(t *testing.T) {
			slicesBitEqual(t, in, c.ship(t, in))
		})
	}
}

// TestPartialWireDefaults: a JSON record with Lo/Hi absent decodes to the
// min/max merge identity, not 0/0 — zeros would silently clamp a merged
// range to include 0 — and one without the hybrid fields (a pre-hybrid
// shard) decodes them as zero.
func TestPartialWireDefaults(t *testing.T) {
	p := GroupPartial{Moments: interval.Moments{ExactSum: 1, ExactCount: 1}}
	if err := json.Unmarshal([]byte(`{"key":"g","n":3}`), &p); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(p.Lo, 1) || !math.IsInf(p.Hi, -1) {
		t.Fatalf("absent Lo/Hi decoded as (%v, %v), want (+Inf, -Inf)", p.Lo, p.Hi)
	}
	if p.ExactSum != 0 || p.ExactCount != 0 {
		t.Fatalf("absent exact mass decoded as (%v, %v), want zeros", p.ExactSum, p.ExactCount)
	}
	if err := json.Unmarshal([]byte(`{"key":"g","lo":"bogus"}`), &p); err == nil {
		t.Fatal("bad non-finite literal accepted")
	}
}

// TestPartialWireMergeEquivalence: decoding shipped partials and merging
// them gives bit-identical results to merging the originals — the
// distributed coordinator's core invariant.
func TestPartialWireMergeEquivalence(t *testing.T) {
	shardA := []GroupPartial{
		{Key: "g1", Moments: interval.Moments{N: 10, ScaledSum: 123.456, ScaledCount: 20, SumVar: 1.5, Lo: 1, Hi: 9}},
		emptyPartial("g2"),
	}
	shardA[1].ZeroN = 4
	shardA[1].ZeroScaled = 400
	shardB := []GroupPartial{
		{Key: "g2", Moments: interval.Moments{N: 5, ScaledSum: 50, ScaledCount: 5, Lo: 9.5, Hi: 10.5, HTSumVar: 2.25}},
		{Key: "g3", Moments: interval.Moments{ExactSum: 77.25, ExactCount: 3, Lo: math.Inf(1), Hi: math.Inf(-1)}},
	}
	local := MergePartials(shardA, shardB)
	for _, c := range wireCodecs {
		t.Run(c.name, func(t *testing.T) {
			slicesBitEqual(t, local, MergePartials(c.ship(t, shardA), c.ship(t, shardB)))
		})
	}
}

// TestPartialsFrameHeader: the frame carries elapsed_ms, and an empty
// result is a frame, not an error.
func TestPartialsFrameHeader(t *testing.T) {
	for _, parts := range [][]GroupPartial{nil, sampleFrameParts()} {
		got, ms, err := DecodePartials(EncodePartials(parts, 12.75))
		if err != nil {
			t.Fatal(err)
		}
		if ms != 12.75 {
			t.Errorf("elapsed_ms %v, want 12.75", ms)
		}
		slicesBitEqual(t, parts, got)
	}
}

func sampleFrameParts() []GroupPartial {
	ghost := emptyPartial("R\x1fO")
	ghost.ZeroN, ghost.ZeroScaled = 2, 40
	return []GroupPartial{
		{Key: "A\x1fF", Moments: interval.Moments{N: 17, ScaledSum: 1234.5, ScaledCount: 240, SumVar: 9.25, CountVar: 3,
			HTSumVar: 2.5, HTSumCountCov: -1.5, Lo: 1, Hi: 50, SparseN: 1, SparseCount: 14}},
		ghost,
		{Key: "", Moments: interval.Moments{ExactSum: math.Copysign(0, -1), ExactCount: 3, Lo: math.Inf(1), Hi: math.Inf(-1)}},
	}
}

// reseal recomputes a damaged frame's checksum, so that what rejects it
// is the parser and not the CRC.
func reseal(frame []byte) []byte {
	out := bytes.Clone(frame)
	body := out[:len(out)-frameTrailerLen]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, castagnoli))
	return out
}

// damagedFrames are the ways a frame goes bad on a leg; DecodePartials
// must refuse each. The fuzz seed corpus holds the same cases.
func damagedFrames() map[string][]byte {
	valid := EncodePartials(sampleFrameParts(), 1.5)
	patch := func(off int, v uint32) []byte {
		out := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(out[off:], v)
		return reseal(out)
	}
	flipped := bytes.Clone(valid)
	flipped[len(valid)/2] ^= 0x10
	return map[string][]byte{
		"bit_flip":        flipped,
		"truncated":       valid[:len(valid)-37],
		"count_overrun":   patch(len(frameMagic), 4),
		"count_huge":      patch(len(frameMagic), math.MaxUint32),
		"count_underrun":  patch(len(frameMagic), 2),
		"key_overrun":     patch(frameHeaderLen, math.MaxUint32),
		"version_2":       reseal(append([]byte("cgp\x02"), valid[len(frameMagic):]...)),
		"trailing_record": reseal(append(bytes.Clone(valid), make([]byte, recordFixedLen)...)),
		"json":            []byte(`{"partials":[],"elapsed_ms":0}`),
		"empty":           {},
	}
}

// TestDecodePartialsRejectsDamage: no damaged frame decodes — not the
// named cases, not any single flipped bit, not any proper prefix.
func TestDecodePartialsRejectsDamage(t *testing.T) {
	for name, frame := range damagedFrames() {
		if parts, _, err := DecodePartials(frame); err == nil {
			t.Errorf("%s: accepted, %d records", name, len(parts))
		}
	}
	valid := EncodePartials(sampleFrameParts(), 1.5)
	for bit := 0; bit < 8*len(valid); bit++ {
		b := bytes.Clone(valid)
		b[bit/8] ^= 1 << (bit % 8)
		if _, _, err := DecodePartials(b); err == nil {
			t.Fatalf("frame with bit %d flipped accepted", bit)
		}
	}
	for n := 0; n < len(valid); n++ {
		if _, _, err := DecodePartials(valid[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte frame accepted", n, len(valid))
		}
	}
}

// TestDecodePartialsBoundsCountBeforeAllocating: a well-sealed frame
// claiming four billion records costs a refusal, not a 500 GB make.
func TestDecodePartialsBoundsCountBeforeAllocating(t *testing.T) {
	frame := damagedFrames()["count_huge"]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodePartials(frame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("refusing a %d-byte frame allocated %d bytes", len(frame), grew)
	}
}

// FuzzDecodePartials: whatever arrives, DecodePartials does not panic,
// never returns more records than the input has room for, and accepts
// only frames that EncodePartials reproduces byte for byte (so there is
// one encoding per value and nothing is read that is not written back).
// Mutated inputs almost never keep a valid checksum, so each is also
// tried re-sealed, which lets the fuzzer reach the record parser.
func FuzzDecodePartials(f *testing.F) {
	check := func(t *testing.T, b []byte) {
		parts, ms, err := DecodePartials(b)
		if err != nil {
			if parts != nil {
				t.Fatalf("error %v came with %d records", err, len(parts))
			}
			return
		}
		if len(parts) > len(b)/recordFixedLen {
			t.Fatalf("%d records out of %d bytes", len(parts), len(b))
		}
		if re := EncodePartials(parts, ms); !bytes.Equal(re, b) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", b, re)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check(t, b)
		if len(b) >= frameTrailerLen {
			check(t, reseal(b))
		}
	})
}

// TestFuzzCorpusIsCurrent: the committed seed corpus is the valid frame,
// the empty frame and every damage case, as this codec writes them
// today. A missing seed is written (commit it); a stale one fails, and
// deleting testdata/fuzz/FuzzDecodePartials then rerunning regenerates
// the lot after a deliberate layout change.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	seeds := damagedFrames()
	seeds["valid"] = EncodePartials(sampleFrameParts(), 1.5)
	seeds["valid_empty"] = EncodePartials(nil, 0)
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodePartials")
	for name, frame := range seeds {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", frame)
		got, err := os.ReadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Errorf("%s was missing; wrote it — commit it", path)
		case err != nil:
			t.Fatal(err)
		case string(got) != want:
			t.Errorf("%s is stale: the codec no longer writes this frame", path)
		}
	}
}

func BenchmarkPartialsCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	parts := make([]GroupPartial, 1000)
	for i := range parts {
		parts[i] = GroupPartial{Key: "A\x1fF\x1f1994-01-01", Moments: interval.Moments{N: rng.Intn(40), ScaledSum: rng.Float64() * 1e6,
			ScaledCount: rng.Float64() * 1e3, SumVar: rng.Float64(), CountVar: rng.Float64(),
			HTSumVar: rng.Float64(), HTSumCountCov: rng.Float64(), Lo: rng.Float64(), Hi: 50 * rng.Float64()}}
	}
	frame := EncodePartials(parts, 1)
	doc, err := json.Marshal(parts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary/encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			EncodePartials(parts, 1)
		}
	})
	b.Run("binary/decode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodePartials(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/encode", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(parts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/decode", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			var out []GroupPartial
			if err := json.Unmarshal(doc, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
