package storage

import (
	"sync"
	"testing"

	"taupsm/internal/sqlast"
)

func fnRoutine(name, ret string) *Routine {
	return &Routine{Kind: KindFunction, Name: name, Fn: &sqlast.CreateFunctionStmt{
		Name:    name,
		Returns: sqlast.TypeName{Base: "INTEGER"},
		Body:    &sqlast.ReturnStmt{Value: &sqlast.ColumnRef{Column: ret}},
	}}
}

// depsFixture is a catalog with a routine f, tables rows (rows read) and
// ident (identity only), a view v, and the names "missing" and "gone"
// resolving to nothing; deps pins all of it.
func depsFixture() (*Catalog, *Deps) {
	cat := NewCatalog()
	cat.PutRoutine(fnRoutine("f", "a"))
	cat.PutTable(NewTable("rows", testSchema()))
	cat.PutTable(NewTable("ident", testSchema()))
	cat.PutView(&View{Name: "v"})
	d := NewDeps(cat)
	d.Pin(cat, map[string]bool{"f": true, "gone": true},
		map[string]bool{"ident": true, "v": true, "missing": true, "rows": true})
	d.PinRows(cat, []string{"rows"})
	return cat, d
}

func TestDepsValidity(t *testing.T) {
	for _, c := range []struct {
		name   string
		change func(cat *Catalog)
		valid  bool
	}{
		{"nothing changed", func(*Catalog) {}, true},
		{"unrelated DDL", func(cat *Catalog) {
			cat.PutTable(NewTable("other", testSchema()))
			cat.PutRoutine(fnRoutine("g", "a"))
			cat.DropTable("other")
		}, true},
		{"routine re-registered identically", func(cat *Catalog) { cat.PutRoutine(fnRoutine("f", "a")) }, true},
		{"routine replaced", func(cat *Catalog) { cat.PutRoutine(fnRoutine("f", "b")) }, false},
		{"routine dropped", func(cat *Catalog) { cat.DropRoutine("f") }, false},
		{"missing routine now exists", func(cat *Catalog) { cat.PutRoutine(fnRoutine("gone", "a")) }, false},
		{"table recreated", func(cat *Catalog) {
			cat.DropTable("ident")
			cat.PutTable(NewTable("ident", testSchema()))
		}, false},
		{"view takes a table's name", func(cat *Catalog) { cat.PutView(&View{Name: "ident"}) }, false},
		{"view replaced", func(cat *Catalog) { cat.PutView(&View{Name: "v"}) }, false},
		{"missing table now exists", func(cat *Catalog) { cat.PutTable(NewTable("missing", testSchema())) }, false},
		{"row change on the rows-read table", func(cat *Catalog) { cat.Table("rows").Bump() }, false},
		{"row change on the identity-only table", func(cat *Catalog) { cat.Table("ident").Bump() }, true},
		{"rows-read table replaced by a temporary one", func(cat *Catalog) {
			tmp := NewTable("rows", testSchema())
			tmp.Temporary = true
			cat.PutTable(tmp)
		}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cat, d := depsFixture()
			if !d.Valid(cat) {
				t.Fatal("fresh dependency set invalid")
			}
			c.change(cat)
			if got := d.Valid(cat); got != c.valid {
				t.Fatalf("Valid = %v, want %v", got, c.valid)
			}
			if c.valid && d.pinned.Load() != cat.PersistentVersion() {
				t.Fatalf("valid set not re-pinned: %d, catalog at %d", d.pinned.Load(), cat.PersistentVersion())
			}
		})
	}
}

// Temporary-table churn — what PERST's generated code does on every
// execution — leaves the persistent version, and so the pin, alone.
func TestDepsPinSurvivesTempTableChurn(t *testing.T) {
	cat, d := depsFixture()
	pinned := d.pinned.Load()
	for i := 0; i < 3; i++ {
		tmp := NewTable("scratch", testSchema())
		tmp.Temporary = true
		cat.PutTable(tmp)
		if !d.Valid(cat) {
			t.Fatal("temp-table churn invalidated the set")
		}
		cat.DropTable("scratch")
	}
	if d.pinned.Load() != pinned || cat.PersistentVersion() != pinned {
		t.Fatalf("pin moved: %d -> %d (catalog %d)", pinned, d.pinned.Load(), cat.PersistentVersion())
	}
}

// A shared set is validated by many goroutines at once (parallel
// fragment workers through the purity cache) while unrelated DDL keeps
// sending them down the re-check path; run under -race.
func TestDepsValidConcurrently(t *testing.T) {
	cat, d := depsFixture()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			cat.PutTable(NewTable("other", testSchema()))
			cat.DropTable("other")
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !d.Valid(cat) {
					t.Error("concurrent Valid reported invalid")
					return
				}
			}
		}()
	}
	wg.Wait()
}
