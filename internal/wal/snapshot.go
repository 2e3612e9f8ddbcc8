package wal

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"taupsm/internal/stats"
	"taupsm/internal/storage"
)

// snapRowChunk bounds the rows per snapshot record, so records stay
// small and a torn snapshot write is detected at the chunk it tore.
const snapRowChunk = 512

// writeSnapshot serializes the catalog into f as a point-in-time
// snapshot: a header record, then effect batches (schema + row chunks
// per table, then views, then routines), then the statistics record
// and an end marker whose presence proves the snapshot complete.
// Temporary tables are session state and are not persisted. Returns
// the bytes written; the caller syncs.
func writeSnapshot(f File, cat *storage.Catalog, ps []stats.TablePersist, epoch uint64) (int64, error) {
	var total int64
	emit := func(payload []byte) error {
		n, err := writeRecord(f, payload)
		total += int64(n)
		return err
	}
	emitEffects := func(effects []storage.Effect) error {
		payload, err := encodeCommit(effects)
		if err != nil {
			return err
		}
		return emit(payload)
	}
	if err := emit(encodeHeader(recSnapHdr, snapMagic, epoch)); err != nil {
		return total, err
	}

	tables := cat.TableNames()
	sort.Strings(tables)
	for _, name := range tables {
		t := cat.Table(name)
		if t == nil || t.Temporary {
			continue
		}
		if err := emitEffects([]storage.Effect{storage.TableEffect(t)}); err != nil {
			return total, err
		}
		for lo := 0; lo < len(t.Rows); lo += snapRowChunk {
			hi := lo + snapRowChunk
			if hi > len(t.Rows) {
				hi = len(t.Rows)
			}
			batch := make([]storage.Effect, 0, hi-lo)
			for _, row := range t.Rows[lo:hi] {
				batch = append(batch, storage.Effect{Kind: storage.EffInsert, Name: t.Name, Row: row})
			}
			if err := emitEffects(batch); err != nil {
				return total, err
			}
		}
	}

	views := cat.ViewNames()
	sort.Strings(views)
	for _, name := range views {
		v := cat.View(name)
		if v == nil {
			continue
		}
		eff := storage.Effect{Kind: storage.EffPutView, Name: v.Name, SQL: renderViewSQL(v)}
		if err := emitEffects([]storage.Effect{eff}); err != nil {
			return total, err
		}
	}

	routines := cat.RoutineNames()
	sort.Strings(routines)
	for _, name := range routines {
		r := cat.Routine(name)
		if r == nil {
			continue
		}
		eff := storage.Effect{Kind: storage.EffPutRoutine, Name: r.Name, SQL: r.SQL()}
		if err := emitEffects([]storage.Effect{eff}); err != nil {
			return total, err
		}
	}

	if len(ps) > 0 {
		if err := emit(encodeStats(ps)); err != nil {
			return total, err
		}
	}

	if err := emit([]byte{recSnapEnd}); err != nil {
		return total, err
	}
	return total, nil
}

// readSnapshot rebuilds a catalog from a snapshot stream. A snapshot
// without its end marker, with a bad checksum, or with undecodable
// content returns an error wrapping ErrCorrupt (recovery then falls
// back to an older snapshot); I/O failures pass through untouched so
// they are never mistaken for a merely incomplete file.
func readSnapshot(f File) (*storage.Catalog, []stats.TablePersist, uint64, error) {
	payload, err := readRecord(f)
	if err != nil {
		return nil, nil, 0, snapReadErr(err)
	}
	epoch, err := decodeHeader(payload, recSnapHdr, snapMagic)
	if err != nil {
		return nil, nil, 0, corrupt(err)
	}
	cat := storage.NewCatalog()
	var ps []stats.TablePersist
	for {
		payload, err := readRecord(f)
		if err != nil {
			// Clean EOF without the end marker = incomplete snapshot.
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, nil, 0, snapReadErr(err)
		}
		if len(payload) == 1 && payload[0] == recSnapEnd {
			return cat, ps, epoch, nil
		}
		if len(payload) > 0 && payload[0] == recSnapStats {
			// Absent in snapshots older than the statistics subsystem;
			// they load with zeroed counters.
			ps, err = DecodeStats(payload)
			if err != nil {
				return nil, nil, 0, corrupt(err)
			}
			continue
		}
		effects, derr := DecodeCommit(payload)
		if derr != nil {
			return nil, nil, 0, corrupt(derr)
		}
		if aerr := applyAll(cat, effects); aerr != nil {
			return nil, nil, 0, corrupt(aerr)
		}
	}
}

// snapReadErr classifies a record-transport failure while reading a
// snapshot: a torn or checksum-bad record means an invalid snapshot
// (fold into ErrCorrupt so recovery falls back to an older one); real
// I/O errors pass through so they are never mistaken for truncation.
func snapReadErr(err error) error {
	if tornTail(err) {
		return corrupt(err)
	}
	return err
}

// corrupt wraps err in ErrCorrupt unless it already is.
func corrupt(err error) error {
	if errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrCorrupt, err)
}
