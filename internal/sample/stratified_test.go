package sample

import (
	"math"
	"testing"
)

func TestStratumScaleFactor(t *testing.T) {
	s := &Stratum[int]{Key: "g", Population: 200, Items: []int{1, 2, 3, 4}}
	if got := s.ScaleFactor(); math.Abs(got-50) > 1e-12 {
		t.Errorf("scale factor=%v, want 50", got)
	}
}

func TestStratumEmptyAndDegenerate(t *testing.T) {
	empty := &Stratum[int]{Key: "e", Population: 100}
	if empty.ScaleFactor() != 0 {
		t.Errorf("empty stratum scale factor = %v, want 0", empty.ScaleFactor())
	}
}

func TestStratifiedAccounting(t *testing.T) {
	st := NewStratified[int]()
	st.Put(&Stratum[int]{Key: "b", Population: 10, Items: []int{1, 2}})
	st.Put(&Stratum[int]{Key: "a", Population: 30, Items: []int{3}})
	st.Put(&Stratum[int]{Key: "c", Population: 5, Items: nil})

	if st.NumStrata() != 3 {
		t.Fatalf("strata=%d, want 3", st.NumStrata())
	}
	if st.Size() != 3 {
		t.Fatalf("size=%d, want 3", st.Size())
	}
	if st.Population() != 45 {
		t.Fatalf("population=%d, want 45", st.Population())
	}
	keys := st.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("keys=%v, want sorted a,b,c", keys)
	}
	var visited []string
	st.Each(func(s *Stratum[int]) { visited = append(visited, s.Key) })
	if len(visited) != 3 || visited[0] != "a" {
		t.Fatalf("Each visited %v", visited)
	}
	if _, ok := st.Get("b"); !ok {
		t.Error("Get(b) missed")
	}
	if _, ok := st.Get("zzz"); ok {
		t.Error("Get(zzz) found phantom stratum")
	}
}

func TestStratifiedValidate(t *testing.T) {
	st := NewStratified[int]()
	st.Put(&Stratum[int]{Key: "ok", Population: 10, Items: []int{1}})
	if err := st.Validate(); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
	st.Put(&Stratum[int]{Key: "bad", Population: 1, Items: []int{1, 2}})
	if err := st.Validate(); err == nil {
		t.Error("over-sampled stratum accepted")
	}
	st2 := NewStratified[int]()
	st2.Put(&Stratum[int]{Key: "neg", Population: -1})
	if err := st2.Validate(); err == nil {
		t.Error("negative population accepted")
	}
}

func TestStratifiedReplace(t *testing.T) {
	st := NewStratified[int]()
	st.Put(&Stratum[int]{Key: "g", Population: 10, Items: []int{1}})
	st.Put(&Stratum[int]{Key: "g", Population: 20, Items: []int{1, 2}})
	if st.NumStrata() != 1 {
		t.Fatalf("replace created duplicate stratum")
	}
	s, _ := st.Get("g")
	if s.Population != 20 || len(s.Items) != 2 {
		t.Fatalf("replace kept stale stratum: %+v", s)
	}
}
