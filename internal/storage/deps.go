package storage

import (
	"slices"
	"sync/atomic"
)

// Deps answers "is what I derived from the catalog still good?" for
// anything derived from named catalog objects (a statement plan, a
// routine's purity verdict): per name consulted, the object it resolved
// to — nil for "nothing there" — and, for tables whose rows were read,
// their data version. NewDeps before consulting the catalog, Pin what
// was consulted; from then on Valid is safe from any goroutine.
type Deps struct {
	// pinned is the PersistentVersion the identities were last checked
	// at, always read before the checks it vouches for: a racing DDL can
	// only leave it too old (one more re-check), never too new.
	pinned atomic.Int64
	items  []dep
}

// dep is what one name meant: a routine, or a table and the view of that
// name. rows marks a table whose rows were read, at version.
type dep struct {
	name          string
	r             *Routine
	t             *Table
	v             *View
	routine, rows bool
	version       int64
}

// NewDeps starts a set pinned at cat's current persistent version.
func NewDeps(cat *Catalog) *Deps {
	d := &Deps{}
	d.Reset(cat)
	return d
}

// Reset empties the set and pins it at cat's current version, to be
// filled again; the caller keeps Valid away meanwhile.
func (d *Deps) Reset(cat *Catalog) {
	d.pinned.Store(cat.PersistentVersion())
	d.items = d.items[:0]
}

// Pin records what the routine and table names an effect summary
// consulted (check.Summary's Routines and Tables) resolve to now.
func (d *Deps) Pin(cat *Catalog, routines, tables map[string]bool) {
	d.items = slices.Grow(d.items, len(routines)+len(tables))
	for name := range routines {
		d.items = append(d.items, dep{name: name, routine: true, r: cat.Routine(name)})
	}
	for name := range tables {
		d.items = append(d.items, dep{name: name, t: cat.Table(name), v: cat.View(name)})
	}
}

// PinRows pins tables whose rows were read: DML on them invalidates.
func (d *Deps) PinRows(cat *Catalog, tables []string) {
	for _, name := range tables {
		it := dep{name: name, t: cat.Table(name), v: cat.View(name), rows: true}
		if it.t != nil {
			it.version = it.t.Version()
		}
		d.items = append(d.items, it)
	}
}

// Valid reports whether everything pinned still holds. Rows-read tables
// are compared every time, identity included (a temporary table is
// replaced without the persistent version moving). Identities are
// two-level: a matching persistent version accepts; otherwise every name
// is resolved again, and if only unrelated DDL ran the set re-pins itself
// at the new version.
func (d *Deps) Valid(cat *Catalog) bool {
	v := cat.PersistentVersion()
	moved := d.pinned.Load() != v
	for i := range d.items {
		it := &d.items[i]
		if it.routine {
			if moved && cat.Routine(it.name) != it.r {
				return false
			}
			continue
		}
		if moved || it.rows {
			t := cat.Table(it.name)
			if t != it.t || (it.rows && t != nil && t.Version() != it.version) {
				return false
			}
		}
		if moved && cat.View(it.name) != it.v {
			return false
		}
	}
	if moved {
		d.pinned.Store(v)
	}
	return true
}
