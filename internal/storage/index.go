package storage

import (
	"fmt"
	"slices"
	"sort"

	"taupsm/internal/types"
)

// hashIndex is a hash index on one column: ids maps each value's hash
// key to its bucket, the ordinals of the rows holding it, ascending.
// Built by the first Lookup on the column, it then follows the table's
// writes; a bucket emptied stays until the index is next built.
type hashIndex struct {
	ids  map[string]int32
	ords [][]int
}

// Lookup returns the ordinals of rows whose column col equals v,
// ascending, building a hash index on the column on first use. The
// returned slice must not be modified, and it is valid only until the
// table's next write. Safe for concurrent readers.
func (t *Table) Lookup(col int, v types.Value) []int {
	var scratch [64]byte
	key := v.AppendHashKey(scratch[:0])
	t.mu.RLock()
	idx := t.indexes[col]
	t.mu.RUnlock()
	if idx == nil {
		t.mu.Lock()
		if idx = t.indexes[col]; idx == nil {
			if t.indexes == nil {
				t.indexes = make(map[int]*hashIndex)
			}
			idx = t.buildHash(col)
			t.indexes[col] = idx
		}
		t.mu.Unlock()
	}
	if id, ok := idx.ids[string(key)]; ok {
		return idx.ords[id]
	}
	return nil
}

// buildHash indexes column col of every row.
func (t *Table) buildHash(col int) *hashIndex {
	idx := &hashIndex{ids: make(map[string]int32, len(t.Rows))}
	var kb []byte
	for i, r := range t.Rows {
		kb = r[col].AppendHashKey(kb[:0])
		idx.add(kb, i)
	}
	return idx
}

// bucket returns the id of key's bucket, made empty when missing.
func (idx *hashIndex) bucket(key []byte) int32 {
	id, ok := idx.ids[string(key)]
	if !ok {
		id = int32(len(idx.ords))
		idx.ids[string(key)] = id
		idx.ords = append(idx.ords, nil)
	}
	return id
}

// add puts ordinal i, past every ordinal key's bucket holds, in it.
func (idx *hashIndex) add(key []byte, i int) {
	id := idx.bucket(key)
	idx.ords[id] = append(idx.ords[id], i)
}

// move takes ordinal i out of the bucket of from and puts it, in order,
// in the bucket of to.
func (idx *hashIndex) move(from, to []byte, i int) {
	if id, ok := idx.ids[string(from)]; ok {
		if j, found := slices.BinarySearch(idx.ords[id], i); found {
			idx.ords[id] = slices.Delete(idx.ords[id], j, j+1)
		}
	}
	id := idx.bucket(to)
	j, _ := slices.BinarySearch(idx.ords[id], i)
	idx.ords[id] = slices.Insert(idx.ords[id], j, i)
}

// Insert appends a row; the row length must match the schema.
func (t *Table) Insert(row []types.Value) error {
	if len(row) != len(t.Schema.Cols) {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.Name, len(row), len(t.Schema.Cols))
	}
	t.Rows = append(t.Rows, row)
	t.version++
	var kb [64]byte
	for col, idx := range t.indexes {
		idx.add(row[col].AppendHashKey(kb[:0]), len(t.Rows)-1)
	}
	t.moved(len(t.Rows) - 1)
	return nil
}

// Grow makes room for n more rows; it writes nothing.
func (t *Table) Grow(n int) { t.Rows = slices.Grow(t.Rows, n) }

// Set writes vals[k] into column cols[k] of row i, in place: every alias
// of the row slice sees the new values.
func (t *Table) Set(i int, cols []int, vals []types.Value) {
	row, period := t.Rows[i], t.span(i)
	var ob, nb [64]byte
	for k, c := range cols {
		if idx := t.indexes[c]; idx != nil {
			if from, to := row[c].AppendHashKey(ob[:0]), vals[k].AppendHashKey(nb[:0]); string(from) != string(to) {
				idx.move(from, to, i)
			}
		}
		row[c] = vals[k]
	}
	if t.span(i) != period {
		t.moved(i)
	}
	t.version++
}

// Retain makes kept the table's rows: the rows as they are, in order,
// but those at the ordinals removed, ascending.
func (t *Table) Retain(kept [][]types.Value, removed []int) {
	t.Rows = kept
	t.version++
	if len(removed) == 0 {
		return
	}
	for _, idx := range t.indexes {
		for id, b := range idx.ords {
			idx.ords[id] = renumber(b, removed)
		}
	}
	if t.ival != nil {
		t.ival.retain(removed, len(t.Rows))
		t.trimIval()
	}
}

// Restore makes rows the table's rows — a slice saved before, or a new
// one — and drops everything derived from the old ones.
func (t *Table) Restore(rows [][]types.Value) {
	t.Rows = rows
	t.Bump()
}

// Bump drops everything derived from the rows — indexes, endpoint views
// and every (*Table, Version) stamp outside the package — after a change
// made to Rows directly.
func (t *Table) Bump() {
	t.version++
	clear(t.indexes)
	t.ival = nil
}

// renumber compacts the ascending ordinals ords in place to what they
// become once the rows at removed (ascending) go.
func renumber(ords, removed []int) []int {
	out := ords[:0]
	for _, o := range ords {
		if o = renumbered(o, removed); o >= 0 {
			out = append(out, o)
		}
	}
	return out
}

// renumbered is ordinal o once the rows at removed (ascending) go: one
// less for every removed ordinal below it, -1 for one of them.
func renumbered(o int, removed []int) int {
	if o < removed[0] {
		return o
	}
	j := sort.SearchInts(removed, o)
	if j < len(removed) && removed[j] == o {
		return -1
	}
	return o - j
}
