package storage

import (
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

func testSchema() *Schema {
	return NewSchema([]Column{
		{Name: "id", Type: sqlast.TypeName{Base: "INTEGER"}},
		{Name: "Name", Type: sqlast.TypeName{Base: "VARCHAR", Length: 20}},
	})
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema()
	if s.Index("id") != 0 || s.Index("ID") != 0 {
		t.Fatal("case-insensitive column lookup")
	}
	if s.Index("name") != 1 || s.Index("NAME") != 1 {
		t.Fatal("mixed-case declared name")
	}
	if s.Index("missing") != -1 {
		t.Fatal("missing column must be -1")
	}
	names := s.Names()
	if len(names) != 2 || names[1] != "Name" {
		t.Fatalf("names: %v", names)
	}
}

func TestTableInsertAndLookup(t *testing.T) {
	tab := NewTable("t", testSchema())
	for i := 0; i < 10; i++ {
		if err := tab.Insert([]types.Value{types.NewInt(int64(i % 3)), types.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Insert([]types.Value{types.NewInt(1)}); err == nil {
		t.Fatal("expected arity error")
	}
	hits := tab.Lookup(0, types.NewInt(1))
	if len(hits) != 3 {
		t.Fatalf("expected 3 hits for id=1, got %d", len(hits))
	}
	for _, i := range hits {
		if tab.Rows[i][0].Int() != 1 {
			t.Fatal("lookup returned wrong row")
		}
	}
	if len(tab.Lookup(0, types.NewInt(99))) != 0 {
		t.Fatal("lookup miss must be empty")
	}
}

func TestIndexInvalidation(t *testing.T) {
	tab := NewTable("t", testSchema())
	_ = tab.Insert([]types.Value{types.NewInt(1), types.NewString("a")})
	if n := len(tab.Lookup(0, types.NewInt(1))); n != 1 {
		t.Fatalf("initial lookup: %d", n)
	}
	// in-place modification + Bump invalidates
	tab.Rows[0][0] = types.NewInt(2)
	tab.Bump()
	if n := len(tab.Lookup(0, types.NewInt(1))); n != 0 {
		t.Fatalf("stale index after Bump: %d hits", n)
	}
	if n := len(tab.Lookup(0, types.NewInt(2))); n != 1 {
		t.Fatalf("rebuilt index: %d hits", n)
	}
	// insert also invalidates
	_ = tab.Insert([]types.Value{types.NewInt(2), types.NewString("b")})
	if n := len(tab.Lookup(0, types.NewInt(2))); n != 2 {
		t.Fatalf("index after insert: %d hits", n)
	}
}

func TestTemporalColumnOrdinals(t *testing.T) {
	tab := NewTable("tt", NewSchema([]Column{
		{Name: "a", Type: sqlast.TypeName{Base: "INTEGER"}},
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}))
	tab.ValidTime = true
	if tab.BeginCol() != 1 || tab.EndCol() != 2 {
		t.Fatalf("timestamp ordinals: %d %d", tab.BeginCol(), tab.EndCol())
	}
}

func TestCatalogCRUD(t *testing.T) {
	c := NewCatalog()
	tab := NewTable("Item", testSchema())
	c.PutTable(tab)
	if c.Table("item") != tab || c.Table("ITEM") != tab {
		t.Fatal("case-insensitive table lookup")
	}
	if !c.DropTable("iTem") || c.Table("item") != nil {
		t.Fatal("drop table")
	}
	if c.DropTable("item") {
		t.Fatal("double drop must report false")
	}

	v := &View{Name: "v1", Cols: []string{"a"}}
	c.PutView(v)
	if c.View("V1") != v {
		t.Fatal("view lookup")
	}
	if !c.DropView("v1") || c.DropView("v1") {
		t.Fatal("view drop")
	}

	r := &Routine{Kind: KindFunction, Name: "F", Fn: &sqlast.CreateFunctionStmt{Name: "F", Body: &sqlast.ReturnStmt{}}}
	c.PutRoutine(r)
	if c.Routine("f") != r {
		t.Fatal("routine lookup")
	}
	if len(c.RoutineNames()) != 1 {
		t.Fatal("routine names")
	}
	if !c.DropRoutine("F") || c.DropRoutine("F") {
		t.Fatal("routine drop")
	}
}

func TestRoutineAccessors(t *testing.T) {
	fn := &sqlast.CreateFunctionStmt{
		Name:   "f",
		Params: []sqlast.ParamDef{{Name: "x", Type: sqlast.TypeName{Base: "INTEGER"}}},
		Body:   &sqlast.ReturnStmt{},
	}
	r := &Routine{Kind: KindFunction, Name: "f", Fn: fn}
	if len(r.Params()) != 1 || r.Body() != fn.Body {
		t.Fatal("function accessors")
	}
	pr := &sqlast.CreateProcedureStmt{
		Name:   "p",
		Params: []sqlast.ParamDef{{Name: "a"}, {Name: "b"}},
		Body:   &sqlast.CompoundStmt{},
	}
	rp := &Routine{Kind: KindProcedure, Name: "p", Proc: pr}
	if len(rp.Params()) != 2 || rp.Body() != pr.Body {
		t.Fatal("procedure accessors")
	}
}

func TestPersistentVersion(t *testing.T) {
	c := NewCatalog()
	base := c.PersistentVersion()

	// Durable table DDL bumps both counters.
	c.PutTable(NewTable("d", testSchema()))
	if got := c.PersistentVersion(); got != base+1 {
		t.Fatalf("durable create: persist %d, want %d", got, base+1)
	}

	// Temp-table churn bumps the full version but not the persistent one.
	v := c.Version()
	tmp := NewTable("scratch", testSchema())
	tmp.Temporary = true
	c.PutTable(tmp)
	c.DropTable("scratch")
	if c.Version() == v {
		t.Fatal("full version must see temp churn")
	}
	if got := c.PersistentVersion(); got != base+1 {
		t.Fatalf("temp churn moved persist to %d, want %d", got, base+1)
	}

	// A temp table replacing a durable one changes what the name means.
	shadow := NewTable("d", testSchema())
	shadow.Temporary = true
	c.PutTable(shadow)
	if got := c.PersistentVersion(); got != base+2 {
		t.Fatalf("temp-over-durable: persist %d, want %d", got, base+2)
	}

	// Views and routines always count as durable schema.
	c.PutView(&View{Name: "v", Cols: []string{"a"}})
	c.DropView("v")
	c.PutRoutine(&Routine{Kind: KindFunction, Name: "f", Fn: &sqlast.CreateFunctionStmt{Name: "f", Body: &sqlast.ReturnStmt{}}})
	c.DropRoutine("f")
	if got := c.PersistentVersion(); got != base+6 {
		t.Fatalf("view/routine DDL: persist %d, want %d", got, base+6)
	}
}

func TestTableNames(t *testing.T) {
	c := NewCatalog()
	c.PutTable(NewTable("a", testSchema()))
	c.PutTable(NewTable("b", testSchema()))
	if len(c.TableNames()) != 2 {
		t.Fatal("table names")
	}
}

// Catalog lookups fold the name without allocating: the engine resolves
// every function call of every row through Routine, and generated SQL
// spells builtins in upper case.
func TestCatalogLookupAllocatesNothing(t *testing.T) {
	c := NewCatalog()
	c.PutRoutine(&Routine{Kind: KindFunction, Name: "Get_Author_Name", Fn: &sqlast.CreateFunctionStmt{Name: "Get_Author_Name", Body: &sqlast.ReturnStmt{}}})
	c.PutTable(NewTable("Item", NewSchema(nil)))
	if c.Routine("GET_AUTHOR_NAME") == nil || c.Routine("get_author_name") == nil || c.Table("ITEM") == nil {
		t.Fatal("lookups are not case-insensitive")
	}
	long := strings.Repeat("X", 200) // longer than the stack buffer
	c.PutRoutine(&Routine{Kind: KindFunction, Name: "Ünïcode", Fn: &sqlast.CreateFunctionStmt{Name: "Ünïcode", Body: &sqlast.ReturnStmt{}}})
	c.PutRoutine(&Routine{Kind: KindFunction, Name: long, Fn: &sqlast.CreateFunctionStmt{Name: long, Body: &sqlast.ReturnStmt{}}})
	if c.Routine("ÜNÏCODE") == nil || c.Routine(strings.ToLower(long)) == nil {
		t.Fatal("non-ASCII or long names do not fold as strings.ToLower does")
	}
	if n := testing.AllocsPerRun(100, func() {
		c.Routine("LAST_INSTANCE") // a miss: builtins are not in the catalog
		c.Routine("GET_AUTHOR_NAME")
		c.Table("ITEM")
		c.View("ITEM")
	}); n != 0 {
		t.Errorf("catalog lookups allocate %.0f objects, want 0", n)
	}
}

// AddPeriod decides the support an ALTER TABLE … ADD VALIDTIME |
// TRANSACTIONTIME leaves a table with, and the columns it appends.
func TestAddPeriod(t *testing.T) {
	data := []Column{{"k", sqlast.TypeName{Base: "INTEGER"}}}
	for _, c := range []struct {
		name           string
		vt, tt         bool // the table's support before
		transaction    bool // ADD TRANSACTIONTIME
		wantVT, wantTT bool
		wantCols       string // "" when refused
	}{
		{"plain+valid", false, false, false, true, false, "k begin_time end_time"},
		{"plain+transaction", false, false, true, false, true, "k begin_time end_time"},
		{"valid+transaction", true, false, true, true, true, "k begin_time end_time tt_begin_time tt_end_time"},
		{"valid+valid", true, false, false, false, false, ""},
		{"transaction+valid", false, true, false, false, false, ""},
		{"transaction+transaction", false, true, true, false, false, ""},
		{"bitemporal+valid", true, true, false, false, false, ""},
		{"bitemporal+transaction", true, true, true, false, false, ""},
	} {
		tab := NewTemporalTable("T", data, c.vt, c.tt)
		tab.Temporary = true
		width := len(tab.Schema.Cols)
		nt, err := AddPeriod(tab, c.transaction)
		if c.wantCols == "" {
			if err == nil || err.Error() != "table T already has temporal support" {
				t.Errorf("%s: want the refusal, got %v", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := strings.Join(nt.Schema.Names(), " "); got != c.wantCols || nt.ValidTime != c.wantVT ||
			nt.TransactionTime != c.wantTT || !nt.Temporary || nt.Name != "T" || len(nt.Rows) != 0 {
			t.Errorf("%s: got %s valid=%v transaction=%v temporary=%v rows=%d", c.name, got,
				nt.ValidTime, nt.TransactionTime, nt.Temporary, len(nt.Rows))
		}
		if len(tab.Schema.Cols) != width {
			t.Errorf("%s: AddPeriod changed the table it was given", c.name)
		}
	}
}
