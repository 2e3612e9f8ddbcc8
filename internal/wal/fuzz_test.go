package wal

import (
	"testing"

	"taupsm/internal/stats"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// FuzzWALReplay feeds arbitrary bytes through the commit-record decoder
// and replays whatever decodes against a live catalog. The invariant is
// absence of panics: a WAL written by a crashed process can contain any
// byte sequence, and recovery must degrade to an error, never abort the
// process. Seeds cover every effect kind plus adversarial truncations.
func FuzzWALReplay(f *testing.F) {
	seed := func(effects []storage.Effect) {
		payload, err := encodeCommit(effects)
		if err != nil {
			f.Fatalf("seed: %v", err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	seed([]storage.Effect{
		{Kind: storage.EffPutTable, Name: "m", ValidTime: true, Cols: []storage.EffectColumn{
			{Name: "id", Base: "INTEGER"}, {Name: "w", Base: "DECIMAL", Length: 8, Scale: 2},
		}},
		{Kind: storage.EffInsert, Name: "m", Row: []types.Value{
			types.NewInt(1), types.NewString("x"), types.NewFloat(2.5), types.Null,
			types.NewDate(types.Forever), {Kind: types.KindBool, I: 1},
		}},
	})
	seed([]storage.Effect{
		{Kind: storage.EffUpdate, Name: "m", Index: 0, Row: []types.Value{types.NewInt(2)}},
		{Kind: storage.EffDelete, Name: "m", Index: 1},
		{Kind: storage.EffDropTable, Name: "m"},
	})
	seed([]storage.Effect{
		{Kind: storage.EffPutView, Name: "v", SQL: "CREATE VIEW v AS SELECT id FROM m;"},
		{Kind: storage.EffPutRoutine, Name: "fn", SQL: "CREATE FUNCTION fn (x INTEGER) RETURNS INTEGER RETURN x + 1;"},
		{Kind: storage.EffDropView, Name: "v"},
		{Kind: storage.EffDropRoutine, Name: "fn"},
	})
	seed([]storage.Effect{{Kind: storage.EffAnalyze, Name: "m"}})
	f.Add([]byte{recCommit})
	f.Add([]byte{recCommit, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add(encodeHeader(recHeader, logMagic, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		effects, err := DecodeCommit(data)
		if err != nil {
			return
		}
		st := &Store{stats: stats.NewRegistry()}
		cat := storage.NewCatalog()
		seedCat := []storage.Effect{
			{Kind: storage.EffPutTable, Name: "m", Cols: []storage.EffectColumn{{Name: "id", Base: "INTEGER"}}},
			{Kind: storage.EffInsert, Name: "m", Row: []types.Value{types.NewInt(1)}},
		}
		if err := applyAll(cat, seedCat); err != nil {
			t.Fatalf("seed catalog: %v", err)
		}
		// Checksum-valid garbage may still be semantic nonsense; replay
		// must reject it with an error, not a panic.
		_ = st.replayCommit(cat, effects)
	})
}
