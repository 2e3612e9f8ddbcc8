package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strings"

	"taupsm"
	"taupsm/internal/storage"
)

// bag is an order-insensitive multiset digest: the element count and the
// wrapping sum of a 128-bit hash of each element. Sums add and subtract,
// so a sweep over a timeline can maintain the bag of the rows valid on
// each day.
type bag struct {
	N    int64
	A, B uint64
}

func (b *bag) add(o bag) { b.N += o.N; b.A += o.A; b.B += o.B }
func (b *bag) sub(o bag) { b.N -= o.N; b.A -= o.A; b.B -= o.B }

// rowBag hashes one rendered row into a one-element bag.
func rowBag(cells []string) bag {
	sum := sha256.Sum256([]byte(strings.Join(cells, "\x1f")))
	return bag{N: 1, A: binary.LittleEndian.Uint64(sum[:8]), B: binary.LittleEndian.Uint64(sum[8:16])}
}

func renderRow(row []taupsm.Value) []string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return cells
}

// dayBag is the bag of a sequenced result's timeslice on one day.
type dayBag struct {
	Day int64
	bag
}

// stmtDigest is what a statement's result is checked by: for a sequenced
// query the timeslice bags at the sampled days of its context, for any
// other query one bag of its rows, for a modification the affected
// count.
type stmtDigest struct {
	rows int64 // sum of bag sizes (or the affected count)
	bags []dayBag
}

// oneBag is the digest of a result that is a single bag.
func oneBag(b bag) stmtDigest { return stmtDigest{rows: b.N, bags: []dayBag{{bag: b}}} }

func (d stmtDigest) hex() string {
	h := sha256.New()
	var buf [32]byte
	for _, b := range d.bags {
		binary.LittleEndian.PutUint64(buf[0:], uint64(b.Day))
		binary.LittleEndian.PutUint64(buf[8:], uint64(b.N))
		binary.LittleEndian.PutUint64(buf[16:], b.A)
		binary.LittleEndian.PutUint64(buf[24:], b.B)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// isSequenced reports whether res carries the leading begin_time,
// end_time columns of a sequenced query result.
func isSequenced(res *taupsm.Result) bool {
	return len(res.Columns) >= 2 &&
		strings.EqualFold(res.Columns[0], "begin_time") && strings.EqualFold(res.Columns[1], "end_time")
}

// digest reduces one statement's result to its stmtDigest.
func digest(o op, res *taupsm.Result) stmtDigest {
	if o.write {
		return oneBag(bag{N: int64(res.Affected)})
	}
	if o.stride == 0 || !isSequenced(res) {
		var all bag
		for _, row := range res.Rows {
			all.add(rowBag(renderRow(row)))
		}
		return oneBag(all)
	}
	var d stmtDigest
	for day := o.begin; day < o.end; day += o.stride {
		d.bags = append(d.bags, dayBag{Day: day})
	}
	for _, row := range res.Rows {
		lo, hi := row[0].Int(), row[1].Int()
		var rb bag
		for i := range d.bags {
			if day := d.bags[i].Day; lo <= day && day < hi {
				if rb.N == 0 {
					rb = rowBag(renderRow(row[2:]))
				}
				d.bags[i].add(rb)
				d.rows++
			}
		}
	}
	return d
}

// timeline is the per-day timeslice bag of one sequenced result over
// [begin, end): the reference the cold statements are compared with.
type timeline struct {
	begin int64
	days  []bag
}

// newTimeline sweeps res once: each row's bag is added at its first day
// and subtracted at the day it ends, and a running sum yields every
// day's timeslice.
func newTimeline(res *taupsm.Result, begin, end int64) timeline {
	diff := make([]bag, end-begin+1)
	for _, row := range res.Rows {
		lo, hi := row[0].Int(), row[1].Int()
		if lo < begin {
			lo = begin
		}
		if hi > end {
			hi = end
		}
		if lo >= hi {
			continue
		}
		rb := rowBag(renderRow(row[2:]))
		diff[lo-begin].add(rb)
		diff[hi-begin].sub(rb)
	}
	tl := timeline{begin: begin, days: make([]bag, end-begin)}
	var run bag
	for i := range tl.days {
		run.add(diff[i])
		tl.days[i] = run
	}
	return tl
}

func (tl timeline) at(day int64) bag { return tl.days[day-tl.begin] }

// grid is the timeline sampled at every stride-th day, as a stmtDigest.
func (tl timeline) grid(stride int64) stmtDigest {
	var d stmtDigest
	for i := int64(0); i < int64(len(tl.days)); i += stride {
		d.bags = append(d.bags, dayBag{Day: tl.begin + i, bag: tl.days[i]})
		d.rows += tl.days[i].N
	}
	return d
}

// tableDigests digests every stored (non-temporary) table as a bag of
// its rows, timestamps included.
func tableDigests(cat *storage.Catalog) map[string]string {
	out := map[string]string{}
	for _, name := range cat.TableNames() {
		t := cat.Table(name)
		if t == nil || t.Temporary {
			continue
		}
		var all bag
		for _, row := range t.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.Text()
			}
			all.add(rowBag(cells))
		}
		out[strings.ToLower(name)] = oneBag(all).hex()
	}
	return out
}

// inputDigest covers what the program is given: the loaded tables and
// the generated SQL of the golden prefix. Drift in internal/taubench's
// data or queries changes it.
func inputDigest(tables map[string]string, sqls []string) string {
	h := sha256.New()
	names := make([]string, 0, len(tables))
	for n := range tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n + "=" + tables[n] + "\n"))
	}
	for _, s := range sqls {
		h.Write([]byte(s + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
