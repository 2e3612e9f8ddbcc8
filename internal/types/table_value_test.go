package types_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// A Value is 40 bytes, one pointer word among them: this does not compile
// when a field is added or widened.
var _ [unsafe.Sizeof(types.Value{}) - 40]struct{}
var _ [40 - unsafe.Sizeof(types.Value{})]struct{}

// tableValue is the table-valued Value holding t, as the engine makes it.
func tableValue(t *storage.Table) types.Value { return types.NewTable(unsafe.Pointer(t)) }

// A table that only a Value refers to stays alive through collections,
// rows and all: S's data pointer is a pointer the collector follows. The
// control table, referred to by nothing, shows the collector ran its
// finalizers meanwhile. TablePtr is nil for every other kind.
func TestTableValueKeepsItsTable(t *testing.T) {
	var kept, control atomic.Bool
	v := func() types.Value {
		tab := storage.NewTable("kept", storage.NewSchema(nil))
		tab.Rows = [][]types.Value{{types.NewInt(7), types.NewString("seven")}}
		runtime.SetFinalizer(tab, func(*storage.Table) { kept.Store(true) })
		other := storage.NewTable("control", storage.NewSchema(nil))
		runtime.SetFinalizer(other, func(*storage.Table) { control.Store(true) })
		return tableValue(tab)
	}()
	for i := 0; !control.Load(); i++ {
		if i == 200 {
			t.Fatal("the control table was never collected")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	time.Sleep(time.Millisecond)
	if kept.Load() {
		t.Fatal("the table a Value holds was collected")
	}
	tab := (*storage.Table)(v.TablePtr())
	if tab == nil || tab.Name != "kept" || len(tab.Rows) != 1 || tab.Rows[0][0].Int() != 7 || tab.Rows[0][1].Text() != "seven" {
		t.Fatalf("the table a Value holds is %+v", tab)
	}
	runtime.KeepAlive(v)

	for _, o := range []types.Value{
		types.Null, types.NewInt(1), types.NewFloat(1), types.NewString(""), types.NewString("x"),
		types.NewBool(true), types.NewDate(1), types.NewTable(nil), {Kind: types.KindString, S: v.S},
	} {
		if p := o.TablePtr(); p != nil {
			t.Errorf("%s %q: TablePtr %p, want nil", o.Kind, o.Text(), p)
		}
	}
}

// A table-valued Value answers every value rule as it did when the table
// was a separate field: the expected texts are those rules' answers
// before, for a Value without a table and for one with a table.
func TestTableValueBehavesAsBefore(t *testing.T) {
	tab := storage.NewTable("t", storage.NewSchema(nil))
	tab.Rows = [][]types.Value{{types.NewString("<table>")}}
	show := func(v types.Value, err error) string {
		if err != nil {
			return "error " + err.Error()
		}
		return v.Kind.String() + " " + v.Text()
	}
	other := tableValue(storage.NewTable("u", storage.NewSchema(nil)))
	checks := []struct {
		name string
		f    func(v types.Value) string
		want string
	}{
		{"Text", func(v types.Value) string { return v.Text() }, "<table>"},
		{"SQLLiteral", func(v types.Value) string { return v.SQLLiteral() }, "<table>"},
		{"HashKey", func(v types.Value) string { return v.HashKey() }, "\x05"},
		{"AppendHashKey", func(v types.Value) string { return string(v.AppendHashKey([]byte("k"))) }, "k\x05"},
		{"Int", func(v types.Value) string { return fmt.Sprint(v.Int()) }, "0"},
		{"Float", func(v types.Value) string { return fmt.Sprint(v.Float()) }, "0"},
		{"IsInstant", func(v types.Value) string { return fmt.Sprint(v.IsInstant()) }, "false"},
		{"IsNull", func(v types.Value) string { return fmt.Sprint(v.IsNull()) }, "false"},
		{"Bool", func(v types.Value) string { return fmt.Sprint(v.Bool()) }, "false"},
		{"Compare string", func(v types.Value) string {
			c, ok := types.Compare(v, types.NewString("<table>"))
			d, ok2 := types.Compare(types.NewString(""), v)
			return fmt.Sprint(c, ok, d, ok2)
		}, "0 false 0 false"},
		{"Compare int", func(v types.Value) string {
			c, ok := types.Compare(v, types.NewInt(0))
			d, ok2 := types.Compare(types.NewInt(0), v)
			return fmt.Sprint(c, ok, d, ok2)
		}, "0 false 0 false"},
		{"Compare table", func(v types.Value) string {
			c, ok := types.Compare(v, v)
			d, ok2 := types.Compare(v, other)
			return fmt.Sprint(c, ok, d, ok2)
		}, "0 false 0 false"},
		{"Equal", func(v types.Value) string {
			return fmt.Sprint(v.Equal(v), v.Equal(other), v.Equal(types.Null), v.Equal(types.NewString("<table>")))
		}, "false false false false"},
		{"Convert NULL", func(v types.Value) string { return show(types.Convert(v, types.KindNull)) }, "TABLE <table>"},
		{"Convert INTEGER", func(v types.Value) string { return show(types.Convert(v, types.KindInt)) }, "INTEGER 0"},
		{"Convert FLOAT", func(v types.Value) string { return show(types.Convert(v, types.KindFloat)) }, "FLOAT 0.0"},
		{"Convert VARCHAR", func(v types.Value) string { return show(types.Convert(v, types.KindString)) }, "VARCHAR <table>"},
		{"Convert BOOLEAN", func(v types.Value) string { return show(types.Convert(v, types.KindBool)) }, "BOOLEAN FALSE"},
		{"Convert DATE", func(v types.Value) string { return show(types.Convert(v, types.KindDate)) }, "error cannot cast TABLE to DATE"},
		{"Convert TABLE", func(v types.Value) string { return show(types.Convert(v, types.KindTable)) }, "TABLE <table>"},
	}
	for _, v := range []struct {
		name string
		v    types.Value
	}{{"NewTable(nil)", types.NewTable(nil)}, {"a table", tableValue(tab)}} {
		for _, c := range checks {
			if got := c.f(v.v); got != c.want {
				t.Errorf("%s: %s = %q, want %q", v.name, c.name, got, c.want)
			}
		}
	}
}
