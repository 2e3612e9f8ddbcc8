package taubench

import (
	"fmt"
	"math/rand"

	"taupsm"
)

// The BT-SMALL bitemporal data set: a position table carrying both
// valid and transaction time, populated by sequenced valid-time DML
// under an advancing clock so the transaction-time history is real
// (every correction closes beliefs and opens new ones), with the
// audit-query shapes the bitemporal scenario unlocks. The repository's
// benchmark loads its oltp-persist workload with it.

// btEntities and btCorrections size BT-SMALL: each entity gets one
// initial insert and btCorrections sequenced corrections, each
// recorded on a later day.
const (
	btEntities    = 40
	btCorrections = 4
)

// BTQuery is one audit query over BT-SMALL.
type BTQuery struct {
	Name string
	Text string
}

// LoadBitemporal builds the BT-SMALL table in db through the statement
// path (not the bulk loader): the transaction-time periods must come
// from the versioning transform itself. Deterministic — a fixed-seed
// generator picks the valid periods and correction days.
func LoadBitemporal(db *taupsm.DB) error {
	rng := rand.New(rand.NewSource(5))
	day := func(n int) (int, int) { return 1 + (n-1)/28, 1 + (n-1)%28 }
	date := func(n int) string {
		m, d := day(n)
		return fmt.Sprintf("DATE '2011-%02d-%02d'", m, d)
	}
	db.SetNow(2011, 1, 1)
	if _, err := db.Exec(`CREATE TABLE bt_position (id CHAR(8), title CHAR(20)) AS VALIDTIME AS TRANSACTIONTIME`); err != nil {
		return err
	}
	titles := []string{"engineer", "manager", "director", "analyst", "intern"}
	for e := 0; e < btEntities; e++ {
		id := fmt.Sprintf("e%03d", e)
		// Initial assertion, recorded early in the year.
		clock := 1 + rng.Intn(20)
		m, d := day(clock)
		db.SetNow(2011, m, d)
		b := 1 + rng.Intn(60)
		ve := b + 60 + rng.Intn(200)
		if ve > 336 {
			ve = 336
		}
		if _, err := db.Exec(fmt.Sprintf(`VALIDTIME (%s, %s) INSERT INTO bt_position VALUES ('%s', '%s')`,
			date(b), date(ve), id, titles[rng.Intn(len(titles))])); err != nil {
			return err
		}
		// Corrections, each recorded on a strictly later day so every
		// one closes the previous belief.
		for c := 0; c < btCorrections; c++ {
			clock += 5 + rng.Intn(40)
			if clock > 330 {
				break
			}
			m, d := day(clock)
			db.SetNow(2011, m, d)
			cb := b + rng.Intn(ve-b)
			if _, err := db.Exec(fmt.Sprintf(`VALIDTIME (%s, %s) UPDATE bt_position SET title = '%s' WHERE id = '%s'`,
				date(cb), date(ve), titles[rng.Intn(len(titles))], id)); err != nil {
				return err
			}
		}
	}
	// Measurement clock: mid-year, when most entities' valid periods
	// are current — the TT-slice and current queries pin valid time to
	// this instant, so a late clock would see an empty present.
	db.SetNow(2011, 6, 15)
	return nil
}
