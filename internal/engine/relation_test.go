package engine

import (
	"sync"
	"testing"
)

func TestSchemaBasics(t *testing.T) {
	s := MustSchema(
		Column{Name: "A", Kind: KindInt},
		Column{Name: "b", Kind: KindString},
	)
	if s.Len() != 2 {
		t.Fatalf("len=%d", s.Len())
	}
	if s.Index("a") != 0 || s.Index("B") != 1 {
		t.Error("case-insensitive lookup failed")
	}
	if s.Index("missing") != -1 {
		t.Error("missing column found")
	}
	if got := s.Names(); got[0] != "A" || got[1] != "b" {
		t.Errorf("names %v", got)
	}
}

func TestSchemaDuplicate(t *testing.T) {
	if _, err := NewSchema(Column{Name: "x"}, Column{Name: "X"}); err == nil {
		t.Error("duplicate column accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSchema did not panic on duplicate")
		}
	}()
	MustSchema(Column{Name: "x"}, Column{Name: "x"})
}

func TestSchemaProject(t *testing.T) {
	s := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindFloat}, Column{Name: "c", Kind: KindString})
	p, err := s.Project("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Cols[0].Name != "c" || p.Cols[1].Kind != KindInt {
		t.Errorf("projection wrong: %+v", p.Cols)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projecting unknown column succeeded")
	}
}

func TestRelationInsertAndRows(t *testing.T) {
	rel := NewRelation("t", MustSchema(Column{Name: "a", Kind: KindInt}))
	if err := rel.Insert(Row{NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if err := rel.Insert(Row{NewInt(1), NewInt(2)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := rel.InsertAll([]Row{{NewInt(2)}, {NewInt(3)}}); err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 3 {
		t.Fatalf("rows=%d", rel.NumRows())
	}
	snap := rel.Rows()
	rel.Insert(Row{NewInt(4)})
	if len(snap) != 3 {
		t.Error("snapshot grew after insert")
	}
}

func TestRelationConcurrentInsert(t *testing.T) {
	rel := NewRelation("t", MustSchema(Column{Name: "a", Kind: KindInt}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rel.Insert(Row{NewInt(int64(g*100 + i))})
			}
		}(g)
	}
	wg.Wait()
	if rel.NumRows() != 800 {
		t.Fatalf("concurrent inserts lost rows: %d", rel.NumRows())
	}
}

func TestRowClone(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].I != 1 {
		t.Error("clone aliases original")
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	a := NewRelation("Orders", MustSchema(Column{Name: "id", Kind: KindInt}))
	cat.Register(a)
	if got, ok := cat.Lookup("orders"); !ok || got != a {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := cat.Lookup("nothing"); ok {
		t.Error("phantom table found")
	}
	b := NewRelation("lineitem", MustSchema(Column{Name: "id", Kind: KindInt}))
	cat.Register(b)
	names := cat.Names()
	if len(names) != 2 || names[0] != "Orders" && names[0] != "lineitem" {
		t.Errorf("names %v", names)
	}
	cat.Drop("ORDERS")
	if _, ok := cat.Lookup("orders"); ok {
		t.Error("drop failed")
	}
	cat.Drop("orders") // dropping absent is fine
}
