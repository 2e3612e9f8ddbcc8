package enginetest

import "taupsm"

// Scenarios is the declarative scenario corpus the runner executes
// over the full axis grid. Add new coverage here: a scenario written
// once runs on MAX × PERST, GOMAXPROCS 1 × 4, in-memory × persistent
// × crash-recovered, with automatic cross-axis row agreement.

var Scenarios = []Scenario{
	{
		// Harness sanity: the classic valid-time lifecycle, as a
		// baseline every axis must agree on.
		Name: "validtime-basics",
		Now:  Clock{2011, 1, 1},
		Setup: []Step{
			{Exec: `CREATE TABLE item (id CHAR(4), title CHAR(20)) AS VALIDTIME`},
			{Exec: `INSERT INTO item VALUES ('i1', 'Book')`},
			{SetNow: &Clock{2011, 3, 1}, Exec: `UPDATE item SET title = 'Tome' WHERE id = 'i1'`},
		},
		Steps: []Step{
			{Query: `SELECT title FROM item`, Expect: []string{"Tome"}},
			{Query: `VALIDTIME (DATE '2011-01-01', DATE '2011-06-01') SELECT title FROM item`,
				Coalesce: true,
				Expect: []string{
					"2011-01-01|2011-03-01|Book",
					"2011-03-01|2011-06-01|Tome",
				}},
		},
	},
	{
		// The tentpole acceptance scenario: a bitemporal table built by
		// sequenced valid-time DML, audited with "what did we believe on
		// date X about date Y" queries.
		Name: "bitemporal-audit",
		Now:  Clock{2011, 1, 10},
		Setup: []Step{
			{Exec: `CREATE TABLE position (id CHAR(4), title CHAR(20)) AS VALIDTIME AS TRANSACTIONTIME`},
			// Recorded on Jan 10: p1 is an engineer from Jan through June.
			{Exec: `VALIDTIME (DATE '2011-01-01', DATE '2011-07-01') INSERT INTO position VALUES ('p1', 'engineer')`},
			// Recorded on Feb 10: correction — p1 became a manager on Mar 1.
			{SetNow: &Clock{2011, 2, 10},
				Exec: `VALIDTIME (DATE '2011-03-01', DATE '2011-07-01') UPDATE position SET title = 'manager' WHERE id = 'p1'`},
		},
		Steps: []Step{
			// Current state, asked on Apr 1.
			{SetNow: &Clock{2011, 4, 1},
				Query: `SELECT title FROM position WHERE id = 'p1'`, Expect: []string{"manager"}},
			// Today's belief about the whole year. The plan must show the
			// bitemporal table as sliced and temporally read.
			{Query: `VALIDTIME (DATE '2011-01-01', DATE '2012-01-01') SELECT title FROM position`,
				Coalesce:      true,
				ExpectExplain: []string{"kind|sequenced", "temporal_tables|position"},
				Expect: []string{
					"2011-01-01|2011-03-01|engineer",
					"2011-03-01|2011-07-01|manager",
				}},
			// What did we believe on Jan 15 about May 1? (Before the
			// correction was recorded: still an engineer.)
			{Query: `VALIDTIME (DATE '2011-05-01') AND TRANSACTIONTIME (DATE '2011-01-15') SELECT title FROM position`,
				Coalesce: true,
				Expect:   []string{"2011-05-01|2011-05-02|engineer"}},
			// What did we believe on Mar 15 about May 1? (After it.)
			{Query: `VALIDTIME (DATE '2011-05-01') AND TRANSACTIONTIME (DATE '2011-03-15') SELECT title FROM position`,
				Coalesce: true,
				Expect:   []string{"2011-05-01|2011-05-02|manager"}},
			// How did our belief about today evolve? Transaction-time
			// slice with valid time pinned to the current instant.
			{Query: `TRANSACTIONTIME (DATE '2011-01-01', DATE '2011-05-01') SELECT title FROM position`,
				Coalesce: true,
				Expect: []string{
					"2011-01-10|2011-02-10|engineer",
					"2011-02-10|2011-05-01|manager",
				}},
			// The raw assertion history, both periods visible.
			{Query: `NONSEQUENCED TRANSACTIONTIME SELECT title, begin_time, end_time, tt_begin_time, tt_end_time FROM position`,
				Expect: []string{
					"engineer|2011-01-01|2011-07-01|2011-01-10|2011-02-10",
					"engineer|2011-01-01|2011-03-01|2011-02-10|9999-12-31",
					"manager|2011-03-01|2011-07-01|2011-02-10|9999-12-31",
				}},
		},
	},
	{
		// Schema migration: a valid-time table upgraded in place with
		// ALTER TABLE ... ADD TRANSACTIONTIME, then corrected — the
		// audit distinguishes pre- and post-migration beliefs.
		Name: "bitemporal-migration",
		Now:  Clock{2011, 1, 5},
		Setup: []Step{
			{Exec: `CREATE TABLE job (id CHAR(4), title CHAR(20)) AS VALIDTIME`},
			{Exec: `VALIDTIME (DATE '2011-01-01', DATE '2011-06-01') INSERT INTO job VALUES ('p1', 'engineer')`},
			// Migration on Feb 10: existing versions become believed
			// from the migration instant on.
			{SetNow: &Clock{2011, 2, 10}, Exec: `ALTER TABLE job ADD TRANSACTIONTIME`},
			// Post-migration correction on Mar 15.
			{SetNow: &Clock{2011, 3, 15},
				Exec: `VALIDTIME (DATE '2011-04-01', DATE '2011-06-01') UPDATE job SET title = 'manager' WHERE id = 'p1'`},
		},
		Steps: []Step{
			{SetNow: &Clock{2011, 5, 1},
				Query: `SELECT title FROM job`, Expect: []string{"manager"}},
			// Belief on Feb 20 (post-migration, pre-correction) about May 1.
			{Query: `VALIDTIME (DATE '2011-05-01') AND TRANSACTIONTIME (DATE '2011-02-20') SELECT title FROM job`,
				Coalesce: true,
				Expect:   []string{"2011-05-01|2011-05-02|engineer"}},
			// Today's belief about May 1.
			{Query: `VALIDTIME (DATE '2011-05-01') SELECT title FROM job`,
				Coalesce: true,
				Expect:   []string{"2011-05-01|2011-05-02|manager"}},
			{Query: `NONSEQUENCED TRANSACTIONTIME SELECT title, begin_time, end_time, tt_begin_time, tt_end_time FROM job`,
				Expect: []string{
					"engineer|2011-01-01|2011-06-01|2011-02-10|2011-03-15",
					"engineer|2011-01-01|2011-04-01|2011-03-15|9999-12-31",
					"manager|2011-04-01|2011-06-01|2011-03-15|9999-12-31",
				}},
		},
	},
	{
		// Mixed-dimension slicing: one statement reaching a valid-time
		// and a transaction-time table slices the dimension it names and
		// pins the other table to the current context.
		Name: "mixed-dimension-slicing",
		Now:  Clock{2024, 1, 1},
		Setup: []Step{
			{Exec: `CREATE TABLE account (id CHAR(10), balance FLOAT) AS TRANSACTIONTIME`},
			{Exec: `INSERT INTO account VALUES ('a1', 100.0)`},
			{Exec: `CREATE TABLE rate (id CHAR(10), r FLOAT) AS VALIDTIME`},
			{Exec: `VALIDTIME (DATE '2024-01-01', DATE '2024-03-01') INSERT INTO rate VALUES ('a1', 0.05)`},
			{SetNow: &Clock{2024, 2, 1}, Exec: `UPDATE account SET balance = 150.0 WHERE id = 'a1'`},
		},
		Steps: []Step{
			// Valid-time slice: rate is sliced, account contributes its
			// currently believed balance.
			{SetNow: &Clock{2024, 2, 15},
				Query:    `VALIDTIME (DATE '2024-01-15', DATE '2024-02-15') SELECT r.r, a.balance FROM rate r, account a WHERE a.id = r.id`,
				Coalesce: true,
				Expect:   []string{"2024-01-15|2024-02-15|0.05|150.0"}},
			// Transaction-time slice: account's recorded history is
			// sliced, rate contributes its currently valid rate.
			{Query: `TRANSACTIONTIME (DATE '2024-01-01', DATE '2024-03-01') SELECT a.balance, r.r FROM account a, rate r WHERE a.id = r.id`,
				Coalesce: true,
				Expect: []string{
					"2024-01-01|2024-02-01|100.0|0.05",
					"2024-02-01|2024-03-01|150.0|0.05",
				}},
		},
	},
	{
		// mixed-dimension-slicing with the orthogonal table read through a
		// stored routine: the routine is cloned all the same, and its clone
		// filters the table to the current context, so bal sees one belief
		// of a1 and rt one valid rate, as the joins above do.
		Name: "routine-reads-orthogonal-dimension",
		Now:  Clock{2024, 1, 1},
		Setup: []Step{
			{Exec: `CREATE TABLE account (id CHAR(10), balance FLOAT) AS TRANSACTIONTIME`},
			{Exec: `INSERT INTO account VALUES ('a1', 100.0)`},
			{Exec: `CREATE TABLE rate (id CHAR(10), r FLOAT) AS VALIDTIME`},
			{Exec: `VALIDTIME (DATE '2024-01-01', DATE '2024-03-01') INSERT INTO rate VALUES ('a1', 0.05)`},
			{Exec: `CREATE FUNCTION bal (i CHAR(10)) RETURNS FLOAT READS SQL DATA LANGUAGE SQL
				BEGIN RETURN (SELECT balance FROM account WHERE id = i); END`},
			{Exec: `CREATE FUNCTION rt (i CHAR(10)) RETURNS FLOAT READS SQL DATA LANGUAGE SQL
				BEGIN RETURN (SELECT r FROM rate WHERE id = i); END`},
			{SetNow: &Clock{2024, 2, 1}, Exec: `UPDATE account SET balance = 150.0 WHERE id = 'a1'`},
		},
		Steps: []Step{
			{SetNow: &Clock{2024, 2, 15},
				Query:    `VALIDTIME (DATE '2024-01-15', DATE '2024-02-15') SELECT r.r, bal(r.id) FROM rate r`,
				Coalesce: true,
				Expect:   []string{"2024-01-15|2024-02-15|0.05|150.0"}},
			{Query: `TRANSACTIONTIME (DATE '2024-01-01', DATE '2024-03-01') SELECT a.balance, rt(a.id) FROM account a`,
				Coalesce: true,
				Expect: []string{
					"2024-01-01|2024-02-01|100.0|0.05",
					"2024-02-01|2024-03-01|150.0|0.05",
				}},
		},
	},
	{
		// The still-invalid forms: transaction time stays
		// system-maintained and append-only on bitemporal tables too.
		Name: "bitemporal-rejections",
		Now:  Clock{2011, 1, 10},
		Setup: []Step{
			{Exec: `CREATE TABLE position (id CHAR(4), title CHAR(20)) AS VALIDTIME AS TRANSACTIONTIME`},
			{Exec: `VALIDTIME (DATE '2011-01-01', DATE '2011-07-01') INSERT INTO position VALUES ('p1', 'engineer')`},
		},
		Steps: []Step{
			// Manual transaction timestamps.
			{Exec: `NONSEQUENCED VALIDTIME INSERT INTO position (id, title, begin_time, end_time, tt_begin_time, tt_end_time)
				VALUES ('p2', 'intern', DATE '2011-01-01', DATE '2011-02-01', DATE '2000-01-01', DATE '2001-01-01')`,
				ExpectErr: "system-maintained"},
			// Rewriting the recorded past.
			{Exec: `TRANSACTIONTIME (DATE '2011-01-01', DATE '2011-02-01') DELETE FROM position`,
				ExpectErr: "audit past"},
			// Modifications always apply to the current belief.
			{Exec: `VALIDTIME (DATE '2011-02-01', DATE '2011-03-01') AND TRANSACTIONTIME (DATE '2011-01-05') DELETE FROM position`,
				ExpectErr: "current belief"},
			// Nonsequenced period surgery is insert-only on bitemporal tables.
			{Exec: `NONSEQUENCED VALIDTIME DELETE FROM position WHERE id = 'p1'`,
				ExpectErr: "only top-level INSERT"},
			// The table is still intact and queryable afterwards.
			{Query: `SELECT title FROM position`, Expect: []string{"engineer"}},
		},
	},
	{
		// Repeated arguments at a routine call: three employees share a
		// department, and one predicate passes only a literal, so PERST's
		// lateral TABLE(ps_dept_name(..)) call and MAX's per-period scalar
		// call both repeat their argument vectors within one statement and
		// are answered from the function-result memo. Every axis must
		// return what an unmemoized evaluation returns, also after the
		// data behind the memoized function changed between statements.
		Name: "repeated-argument-routine-calls",
		Now:  Clock{2011, 1, 1},
		Setup: []Step{
			{Exec: `CREATE TABLE dept (id CHAR(4), name CHAR(20)) AS VALIDTIME`},
			{Exec: `CREATE TABLE emp (id CHAR(4), dept_id CHAR(4)) AS VALIDTIME`},
			{Exec: `INSERT INTO dept VALUES ('d1', 'Tools'), ('d2', 'Games')`},
			{Exec: `INSERT INTO emp VALUES ('e1', 'd1'), ('e2', 'd1'), ('e3', 'd1'), ('e4', 'd2')`},
			{Exec: `CREATE FUNCTION dept_name (did CHAR(4)) RETURNS CHAR(20) READS SQL DATA LANGUAGE SQL
				BEGIN
				  RETURN (SELECT name FROM dept WHERE id = did);
				END`},
			{SetNow: &Clock{2011, 3, 1}, Exec: `UPDATE dept SET name = 'Toys' WHERE id = 'd1'`},
		},
		Steps: []Step{
			{Query: `VALIDTIME (DATE '2011-01-01', DATE '2011-06-01') SELECT e.id, dept_name(e.dept_id) FROM emp e`,
				Coalesce: true,
				Expect: []string{
					"2011-01-01|2011-03-01|e1|Tools", "2011-03-01|2011-06-01|e1|Toys",
					"2011-01-01|2011-03-01|e2|Tools", "2011-03-01|2011-06-01|e2|Toys",
					"2011-01-01|2011-03-01|e3|Tools", "2011-03-01|2011-06-01|e3|Toys",
					"2011-01-01|2011-06-01|e4|Games",
				}},
			{Query: `VALIDTIME (DATE '2011-01-01', DATE '2011-06-01') SELECT e.id FROM emp e WHERE dept_name('d1') = 'Toys'`,
				Coalesce: true,
				Expect: []string{
					"2011-03-01|2011-06-01|e1", "2011-03-01|2011-06-01|e2",
					"2011-03-01|2011-06-01|e3", "2011-03-01|2011-06-01|e4",
				}},
			{SetNow: &Clock{2011, 4, 1}, Exec: `UPDATE dept SET name = 'Tops' WHERE id = 'd1'`},
			{Query: `VALIDTIME (DATE '2011-01-01', DATE '2011-06-01') SELECT e.id, dept_name(e.dept_id) FROM emp e WHERE e.dept_id = 'd1'`,
				Coalesce: true,
				Expect: []string{
					"2011-01-01|2011-03-01|e1|Tools", "2011-03-01|2011-04-01|e1|Toys", "2011-04-01|2011-06-01|e1|Tops",
					"2011-01-01|2011-03-01|e2|Tools", "2011-03-01|2011-04-01|e2|Toys", "2011-04-01|2011-06-01|e2|Tops",
					"2011-01-01|2011-03-01|e3|Tools", "2011-03-01|2011-04-01|e3|Toys", "2011-04-01|2011-06-01|e3|Tops",
				}},
		},
	},
	{
		// Sequenced set operators (ROADMAP item 1a). t holds k=1 twice
		// over part of January, s subtracts k=1 from Jan 20 on. MAX
		// evaluates the operator per constant period. PERST would compare
		// whole (begin, end, k) rows — EXCEPT never subtracting, INTERSECT
		// empty, UNION keeping snapshot duplicates — so it must reject all
		// three, also where the operator hides in a derived table of a
		// routine body, and auto must fall back to MAX. UNION ALL is a bag
		// union under either strategy: checked day by day, because the two
		// fragment periods differently and coalescing would merge the
		// duplicates the operator has to keep.
		Name: "sequenced-set-operators",
		Now:  Clock{2010, 6, 15},
		Setup: overlappingT(
			Step{Exec: `CREATE TABLE s (k INTEGER) AS VALIDTIME`},
			Step{Exec: `NONSEQUENCED VALIDTIME INSERT INTO s VALUES (1, DATE '2010-01-20', DATE '2010-03-10')`},
			Step{Exec: `CREATE TABLE one (x INTEGER)`},
			Step{Exec: `INSERT INTO one VALUES (1)`},
			Step{Exec: `CREATE FUNCTION distinct_keys () RETURNS INTEGER READS SQL DATA LANGUAGE SQL
				BEGIN
				  RETURN (SELECT COUNT(*) FROM (SELECT k FROM t UNION SELECT k FROM s) d);
				END`}),
		Steps: setOperatorSteps(),
	},
	{
		// Sequenced ungrouped aggregates (ROADMAP item 1b). t is empty
		// before January, in February and after March; the nontemporal
		// query on such a timeslice still returns one row (COUNT 0, SUM
		// NULL), so MAX owes a row for those constant periods — unless a
		// HAVING rejects it. A grouped aggregate has no group there and
		// owes nothing. PERST rejects every sequenced aggregate; auto must
		// answer as MAX does.
		Name:  "sequenced-aggregate-gaps",
		Now:   Clock{2010, 6, 15},
		Setup: overlappingT(),
		Steps: aggregateGapSteps(),
	},
	{
		// Sequenced DISTINCT (ROADMAP item 1e). t holds k=1 twice over the
		// second half of January; every snapshot there has one distinct k.
		// MAX deduplicates per constant period. PERST would deduplicate
		// (begin_time, end_time, k) rows and keep both, so it must reject
		// and auto answer as MAX does — checked on single days too, where
		// coalescing cannot hide a duplicate. Over no table carrying the
		// sliced dimension DISTINCT is one snapshot's under either strategy.
		Name: "sequenced-distinct-duplicates",
		Now:  Clock{2010, 3, 5},
		Setup: overlappingT(
			Step{Exec: `CREATE TABLE one (x INTEGER)`},
			Step{Exec: `INSERT INTO one VALUES (1), (1)`}),
		Steps: []Step{
			{Query: seqCtx + `SELECT DISTINCT k FROM t`, Coalesce: true, Skip: skipPerst,
				Expect: []string{"2010-01-01|2010-02-01|1", "2010-03-01|2010-04-01|2"}},
			{Query: seqCtx + `SELECT DISTINCT k FROM t`, Skip: skipMax,
				ExpectErr: "sequenced DISTINCT requires constant periods"},
			{Query: seqCtx + `SELECT DISTINCT k FROM t`, Auto: true, Coalesce: true,
				Expect:        []string{"2010-01-01|2010-02-01|1", "2010-03-01|2010-04-01|2"},
				ExpectExplain: []string{"strategy|MAX", "auto_reason|perst_not_transformable"}},
			{Exec: seqCtx + `SELECT DISTINCT k FROM t`, ExpectExplain: []string{"TAU030"}, Skip: skipPerst},
			{Query: `VALIDTIME (DATE '2010-01-10') SELECT DISTINCT k FROM t`, Auto: true,
				Expect: []string{"2010-01-10|2010-01-11|1"}},
			{Query: `VALIDTIME (DATE '2010-01-20') SELECT DISTINCT k FROM t`, Auto: true,
				Expect: []string{"2010-01-20|2010-01-21|1"}},
			{Query: `VALIDTIME (DATE '2010-02-10') SELECT DISTINCT k FROM t`, Auto: true, Expect: []string{}},
			{Query: seqCtx + `SELECT DISTINCT x FROM one`, Expect: []string{"2009-12-01|2010-05-01|1"}},
			{Query: seqCtx + `SELECT k, (SELECT COUNT(*) FROM one) FROM t`, Coalesce: true, // a snapshot subquery's aggregate is not the block's
				Expect: []string{"2010-01-01|2010-02-01|1|2", "2010-03-01|2010-04-01|2|2"}},
		},
	},
	{
		// Sequenced FETCH FIRST (ROADMAP item 1f). Either strategy would
		// limit the sliced result as a whole — MAX answered [01-01, 01-15),
		// PERST [01-01, 02-01), neither a row on March 15 — where each
		// snapshot owes its own first row: both refuse, and so does auto.
		// Over no temporal table, and in a current statement, the limit stays.
		Name: "sequenced-fetch-first",
		Now:  Clock{2010, 3, 5},
		Setup: overlappingT(
			Step{Exec: `CREATE TABLE one (x INTEGER)`},
			Step{Exec: `INSERT INTO one VALUES (2), (1)`}),
		Steps: []Step{
			{Query: seqCtx + `SELECT k FROM t ORDER BY k FETCH FIRST 1 ROWS ONLY`,
				ExpectErr: "sequenced FETCH FIRST over temporal data is not supported"},
			{Query: seqCtx + `SELECT k FROM t ORDER BY k FETCH FIRST 1 ROWS ONLY`, Auto: true,
				ExpectErr: "sequenced FETCH FIRST over temporal data is not supported"},
			{Query: seqCtx + `SELECT x FROM one UNION ALL SELECT k FROM t FETCH FIRST 1 ROWS ONLY`,
				ExpectErr: "sequenced FETCH FIRST over temporal data is not supported"},
			{Query: seqCtx + `SELECT x FROM one ORDER BY x FETCH FIRST 1 ROWS ONLY`,
				Expect: []string{"2009-12-01|2010-05-01|1"}},
			{Query: `SELECT k FROM t ORDER BY k FETCH FIRST 1 ROWS ONLY`, Expect: []string{"2"}},
		},
	},
	{
		// A current statement's query under CREATE TABLE … AS (ROADMAP item
		// 1g). The translator registers curr_nm and must call it: the
		// un-cloned nm reads every version of a and answered 'zold', the
		// name that ended in 2009, where the current timeslice holds 'new'.
		// (MapExprs did not descend into the AS query.)
		Name: "current-ctas-routine",
		Now:  Clock{2010, 3, 5},
		Setup: []Step{
			{Exec: `CREATE TABLE a (id INTEGER, name CHAR(10)) AS VALIDTIME`},
			{Exec: `NONSEQUENCED VALIDTIME INSERT INTO a VALUES
				(1, 'zold', DATE '2009-01-01', DATE '2010-01-01'),
				(1, 'new', DATE '2010-01-01', DATE '9999-12-31')`},
			{Exec: `CREATE FUNCTION nm (i INTEGER) RETURNS CHAR(10) READS SQL DATA LANGUAGE SQL
				BEGIN DECLARE n CHAR(10); SET n = (SELECT MAX(name) FROM a WHERE id = i); RETURN n; END`},
			{Exec: `CREATE TABLE k (id INTEGER)`},
			{Exec: `INSERT INTO k VALUES (1)`},
		},
		Steps: []Step{
			{Query: `SELECT nm(id) FROM k`, Expect: []string{"new"}},
			{Exec: `CREATE TABLE c1 AS (SELECT nm(id) AS n FROM k) WITH DATA`,
				ExpectExplain: []string{"CREATE TABLE c1 AS (SELECT curr_nm(id) AS n FROM k) WITH DATA"}},
			{Query: `SELECT n FROM c1`, Expect: []string{"new"}},
		},
	},
	{
		// Modifier statements below the top of a routine body (ROADMAP item
		// 1h). A routine called nonsequenced may hold them wherever a
		// statement can stand; one inside IF, a loop or a handler reached
		// the engine with its modifier on. Each procedure logs the
		// nonsequenced row count of a (2; the current one is 1).
		Name: "nonseq-nested-modifier",
		Now:  Clock{2010, 3, 5},
		Setup: []Step{
			{Exec: `CREATE TABLE a (id INTEGER, name CHAR(10)) AS VALIDTIME`},
			{Exec: `NONSEQUENCED VALIDTIME INSERT INTO a VALUES
				(1, 'zold', DATE '2009-01-01', DATE '2010-01-01'),
				(1, 'new', DATE '2010-01-01', DATE '9999-12-31')`},
			{Exec: `CREATE TABLE log (n INTEGER)`},
			{Exec: `CREATE PROCEDURE p_if () LANGUAGE SQL BEGIN
				IF 1 = 1 THEN NONSEQUENCED VALIDTIME INSERT INTO log SELECT COUNT(*) FROM a; END IF; END`},
			{Exec: `CREATE PROCEDURE p_while () LANGUAGE SQL BEGIN
				DECLARE i INTEGER DEFAULT 0;
				WHILE i < 2 DO
				  NONSEQUENCED VALIDTIME INSERT INTO log SELECT COUNT(*) + 10 FROM a;
				  SET i = i + 1;
				END WHILE; END`},
			{Exec: `CREATE PROCEDURE p_handler () LANGUAGE SQL BEGIN
				DECLARE v INTEGER;
				DECLARE c CURSOR FOR SELECT n FROM log WHERE n < 0;
				DECLARE CONTINUE HANDLER FOR NOT FOUND
				  NONSEQUENCED VALIDTIME INSERT INTO log SELECT COUNT(*) + 100 FROM a;
				OPEN c; FETCH c INTO v; CLOSE c; END`},
		},
		Steps: []Step{
			{Exec: `NONSEQUENCED VALIDTIME CALL p_if()`},
			{Query: `SELECT n FROM log`, Expect: []string{"2"}},
			{Exec: `NONSEQUENCED VALIDTIME CALL p_while()`},
			{Exec: `NONSEQUENCED VALIDTIME CALL p_handler()`},
			{Query: `SELECT n FROM log`, Expect: []string{"2", "12", "12", "102"}},
			{Exec: `CALL p_if()`, ExpectErr: "may only be invoked from a nonsequenced context"},
		},
	},
	{
		// Outer joins over temporal tables (ROADMAP item 1d). On 2010-03-05
		// t holds k=2 and s only k=1: the legacy LEFT JOIN owes (2, NULL).
		// The current predicate of the null-supplying table belongs in the
		// join's ON; in WHERE it discarded the NULL-extended row. The
		// preserved side's stays in WHERE. Sliced, both strategies would
		// restrict s after the join alike — so both, and auto, refuse.
		Name: "outer-join-temporal",
		Now:  Clock{2010, 3, 5},
		Setup: overlappingT(
			Step{Exec: `CREATE TABLE s (k INTEGER) AS VALIDTIME`},
			Step{Exec: `NONSEQUENCED VALIDTIME INSERT INTO s VALUES (1, DATE '2010-01-20', DATE '2010-03-10')`},
			Step{Exec: `CREATE TABLE one (x INTEGER)`},
			Step{Exec: `INSERT INTO one VALUES (1), (2)`}),
		Steps: []Step{
			{Query: `SELECT t.k, s.k FROM t LEFT JOIN s ON t.k = s.k`, Expect: []string{"2|NULL"},
				ExpectExplain: []string{"LEFT JOIN s ON t.k = s.k AND s.begin_time <= CURRENT_DATE AND CURRENT_DATE < s.end_time WHERE t.begin_time <= CURRENT_DATE"}},
			{Query: `SELECT s.k, t.k FROM s LEFT JOIN t ON s.k = t.k`, Expect: []string{"1|NULL"}},
			{Query: `SELECT t.k, s.k FROM t JOIN s ON t.k = s.k`, Expect: []string{}},
			{Query: `SELECT x, t.k, s.k FROM one LEFT JOIN t ON x = t.k LEFT JOIN s ON x = s.k`,
				Expect: []string{"1|NULL|1", "2|2|NULL"}},
			{Query: `SELECT t.k, s.k FROM t LEFT JOIN s ON t.k = s.k`, SetNow: &Clock{2010, 1, 25},
				Expect: []string{"1|1", "1|1"}},
			{Query: seqCtx + `SELECT t.k, s.k FROM t LEFT JOIN s ON t.k = s.k`,
				ExpectErr: "sequenced LEFT JOIN onto temporal table s is not supported"},
			{Query: seqCtx + `SELECT t.k, s.k FROM t LEFT JOIN s ON t.k = s.k`, Auto: true,
				ExpectErr: "sequenced LEFT JOIN onto temporal table s is not supported"},
			{Query: seqCtx + `SELECT x, t.k FROM one LEFT JOIN t ON x = t.k`,
				ExpectErr: "sequenced LEFT JOIN onto temporal table t is not supported"},
			{Query: seqCtx + `SELECT t.k, x FROM t LEFT JOIN one ON x = t.k`, Coalesce: true,
				Expect: []string{"2010-01-01|2010-02-01|1|1", "2010-03-01|2010-04-01|2|2"}},
		},
	},
	{
		// Subqueries of a current modification of a temporal table (ROADMAP
		// item 1i). On 2010-03-05 q holds x=5; the x=100 that ended in 2009
		// is not in the current timeslice, so MAX(x) is 5 and row 2, whose v
		// is 100, matches no x. The subqueries went unrestricted when the
		// target was temporal — on a valid-time and a bitemporal target alike.
		Name: "current-dml-subquery",
		Now:  Clock{2010, 3, 4},
		Setup: periodVaryingQ(
			Step{Exec: `CREATE TABLE p (id INTEGER, v INTEGER) AS VALIDTIME`},
			Step{Exec: `CREATE TABLE b (id INTEGER, v INTEGER) AS VALIDTIME AS TRANSACTIONTIME`},
			Step{Exec: `VALIDTIME INSERT INTO p VALUES (1, 10), (2, 100), (3, 5)`},
			Step{Exec: `VALIDTIME INSERT INTO b VALUES (1, 10), (2, 100), (3, 5)`}),
		Steps: []Step{
			{SetNow: &Clock{2010, 3, 5}, Exec: `UPDATE p SET v = (SELECT MAX(x) FROM q) WHERE id = 1`,
				ExpectExplain: []string{"(SELECT MAX(x) FROM q WHERE q.begin_time <= CURRENT_DATE AND CURRENT_DATE < q.end_time)"}},
			{Exec: `UPDATE b SET v = (SELECT MAX(x) FROM q) WHERE id = 1`},
			{Query: `SELECT p.v, b.v FROM p, b WHERE p.id = 1 AND b.id = 1`, Expect: []string{"5|5"}},
			{SetNow: &Clock{2010, 3, 6}, Exec: `DELETE FROM p WHERE v IN (SELECT x FROM q)`,
				ExpectExplain: []string{"v IN (SELECT x FROM q WHERE q.begin_time <= CURRENT_DATE AND CURRENT_DATE < q.end_time)"}},
			{Exec: `DELETE FROM b WHERE v IN (SELECT x FROM q)`},
			{Query: `SELECT p.id, b.id FROM p, b`, Expect: []string{"2|2"}},
		},
	},
	{
		// A sequenced modification that reads a table varying over its period
		// (ROADMAP items 1j, 1k). The builder evaluates SET and an INSERT's
		// source once: v became 100 over the whole period though q says 5 from
		// 2010 on, and r got 100 and 5 both, each over the whole period. Both
		// strategies, and auto, refuse; over a snapshot table nothing varies.
		Name: "sequenced-dml-reads-temporal",
		Now:  Clock{2010, 3, 5},
		Setup: periodVaryingQ(
			Step{Exec: `CREATE TABLE one (x INTEGER)`},
			Step{Exec: `INSERT INTO one VALUES (7)`},
			Step{Exec: `CREATE TABLE p (id INTEGER, v INTEGER) AS VALIDTIME`},
			Step{Exec: `VALIDTIME (DATE '2009-06-01', DATE '9999-12-31') INSERT INTO p VALUES (1, 10)`},
			Step{Exec: `CREATE TABLE r (x INTEGER) AS VALIDTIME`},
			Step{Exec: `CREATE TABLE bel (x INTEGER) AS TRANSACTIONTIME`},
			Step{Exec: `INSERT INTO bel VALUES (100)`}),
		Steps: []Step{
			{Exec: seqDMLCtx + `UPDATE p SET v = (SELECT MAX(x) FROM q) WHERE id = 1`, ExpectErr: seqDMLRefusal},
			{Exec: seqDMLCtx + `UPDATE p SET v = (SELECT MAX(x) FROM q) WHERE id = 1`, Auto: true, ExpectErr: seqDMLRefusal},
			{Exec: seqDMLCtx + `INSERT INTO r SELECT x FROM q`, ExpectErr: seqDMLRefusal},
			{Exec: seqDMLCtx + `INSERT INTO r SELECT x FROM q`, Auto: true, ExpectErr: seqDMLRefusal},
			{Exec: seqDMLCtx + `UPDATE p SET v = (SELECT MAX(x) FROM one) WHERE id = 1`},
			{Exec: seqDMLCtx + `INSERT INTO r SELECT x FROM one`},
			{Query: `NONSEQUENCED VALIDTIME SELECT v, begin_time, end_time FROM p`, Expect: []string{
				"10|2009-06-01|2009-07-01", "7|2009-07-01|2010-07-01", "10|2010-07-01|9999-12-31"}},
			{Query: `NONSEQUENCED VALIDTIME SELECT x, begin_time, end_time FROM r`, Expect: []string{"7|2009-07-01|2010-07-01"}},
			// A transaction-time table does not vary over the valid-time
			// period, so reading it is no refusal — but it is read as a
			// sequenced query reads it, at the current belief (ROADMAP item
			// 1n): the superseded 100 is neither the maximum nor inserted.
			{SetNow: &Clock{2010, 3, 6}, Exec: `UPDATE bel SET x = 8`},
			{Exec: seqDMLCtx + `UPDATE p SET v = (SELECT MAX(x) FROM bel) WHERE id = 1`},
			{Exec: seqDMLCtx + `INSERT INTO r SELECT x FROM bel`},
			{Query: `NONSEQUENCED VALIDTIME SELECT v, begin_time, end_time FROM p`, Expect: []string{
				"10|2009-06-01|2009-07-01", "8|2009-07-01|2010-07-01", "10|2010-07-01|9999-12-31"}},
			{Query: `NONSEQUENCED VALIDTIME SELECT x, begin_time, end_time FROM r`, Expect: []string{
				"7|2009-07-01|2010-07-01", "8|2009-07-01|2010-07-01"}},
		},
	},
	{
		// A sequenced UPDATE whose SET qualifies a column by the target's
		// alias or name (ROADMAP item 1l). The staged rows were read without
		// the alias, so t.v was "not found"; they are read under it.
		Name: "sequenced-update-qualified-set",
		Now:  Clock{2010, 3, 4},
		Setup: []Step{
			{Exec: `CREATE TABLE p (id INTEGER, v INTEGER) AS VALIDTIME`},
			{Exec: `CREATE TABLE b (id INTEGER, v INTEGER) AS VALIDTIME AS TRANSACTIONTIME`},
			{Exec: `VALIDTIME (DATE '2009-06-01', DATE '9999-12-31') INSERT INTO p VALUES (1, 10)`},
			{Exec: `VALIDTIME (DATE '2009-06-01', DATE '9999-12-31') INSERT INTO b VALUES (1, 10)`},
		},
		Steps: []Step{
			{SetNow: &Clock{2010, 3, 5},
				Exec: `VALIDTIME (DATE '2010-01-01', DATE '2010-06-01') UPDATE p t SET v = t.v + 1 WHERE t.id = 1`},
			{Exec: `VALIDTIME (DATE '2010-02-01', DATE '2010-03-01') UPDATE p SET v = p.v + 100 WHERE p.id = 1`},
			{Exec: `VALIDTIME (DATE '2010-01-01', DATE '2010-06-01') UPDATE b t SET v = t.v + 1 WHERE t.id = 1`},
			{Exec: `VALIDTIME (DATE '2010-02-01', DATE '2010-03-01') UPDATE b SET v = b.v + 100 WHERE b.id = 1`},
			{Query: `VALIDTIME (DATE '2009-01-01', DATE '2011-01-01') SELECT v FROM p`, Coalesce: true, Expect: qualifiedSetRows},
			{Query: `VALIDTIME (DATE '2009-01-01', DATE '2011-01-01') SELECT v FROM b`, Coalesce: true, Expect: qualifiedSetRows},
		},
	}, {
		// A view's column hides a routine variable of its name in a query
		// reading the view (ROADMAP item 1q). PERST named a view's columns
		// with its own rule, which gave up on * and unaliased expressions,
		// so it read the variable price (10, then 20) where MAX and every
		// snapshot read the view's 500. vw is defined three ways over
		// plain; the one with named columns is the control.
		Name: "view-columns-shadow-variables",
		Now:  Clock{2010, 3, 5},
		Setup: []Step{
			{Exec: `CREATE TABLE plain (k INTEGER, price INTEGER)`},
			{Exec: `INSERT INTO plain VALUES (1, 500)`},
			{Exec: `CREATE TABLE rate (k INTEGER, price INTEGER) AS VALIDTIME`},
			{Exec: `VALIDTIME (DATE '2010-01-01', DATE '2010-02-01') INSERT INTO rate VALUES (1, 10)`},
			{Exec: `VALIDTIME (DATE '2010-02-01', DATE '2010-03-01') INSERT INTO rate VALUES (1, 20)`},
			{Exec: `CREATE FUNCTION via_vw (x INTEGER) RETURNS INTEGER READS SQL DATA BEGIN
DECLARE price INTEGER;
SET price = (SELECT r.price FROM rate r WHERE r.k = x);
RETURN (SELECT price FROM vw);
END`},
		},
		Steps: viewShadowSteps(
			`CREATE VIEW vw AS SELECT * FROM plain`,
			`CREATE VIEW vw AS SELECT k + 0, price FROM plain`,
			`CREATE VIEW vw (kk, price) AS SELECT k + 0, price FROM plain`),
	},
}

// viewShadowSteps defines vw by each definition in turn and asks, under
// a sequenced context, for the price via_vw returns: 500 on every day.
func viewShadowSteps(defs ...string) []Step {
	var steps []Step
	for _, def := range defs {
		steps = append(steps, Step{Exec: `DROP VIEW IF EXISTS vw`}, Step{Exec: def},
			Step{Query: `VALIDTIME (DATE '2010-01-01', DATE '2010-03-01') SELECT via_vw(k) FROM plain`,
				Coalesce: true, Expect: []string{"2010-01-01|2010-03-01|500"}})
	}
	return steps
}

// periodVaryingQ is the table the ROADMAP item 1(i)–(k) repros read: x
// was 100 through 2009 and is 5 from 2010 on.
func periodVaryingQ(more ...Step) []Step {
	return append([]Step{
		{Exec: `CREATE TABLE q (x INTEGER) AS VALIDTIME`},
		{Exec: `NONSEQUENCED VALIDTIME INSERT INTO q VALUES
				(100, DATE '2009-01-01', DATE '2010-01-01'), (5, DATE '2010-01-01', DATE '9999-12-31')`},
	}, more...)
}

const (
	seqDMLCtx     = `VALIDTIME (DATE '2009-07-01', DATE '2010-07-01') `
	seqDMLRefusal = "sequenced modification reads temporal table q"
)

var qualifiedSetRows = []string{
	"2009-06-01|2010-01-01|10", "2010-01-01|2010-02-01|11", "2010-02-01|2010-03-01|111",
	"2010-03-01|2010-06-01|11", "2010-06-01|2011-01-01|10"}

// seqCtx is the context the ROADMAP item 1 repros are written under, and
// overlappingT their table: k=1 twice over the second half of January,
// k=2 in March, nothing before, between or after.
const seqCtx = `VALIDTIME (DATE '2009-12-01', DATE '2010-05-01') `

func overlappingT(more ...Step) []Step {
	return append([]Step{
		{Exec: `CREATE TABLE t (k INTEGER) AS VALIDTIME`},
		{Exec: `NONSEQUENCED VALIDTIME INSERT INTO t VALUES
				(1, DATE '2010-01-01', DATE '2010-02-01'),
				(1, DATE '2010-01-15', DATE '2010-02-01'),
				(2, DATE '2010-03-01', DATE '2010-04-01')`},
	}, more...)
}

// setOperatorSteps builds the steps of the sequenced-set-operators
// scenario: each snapshot-comparing operator answered by MAX, rejected
// by PERST and answered by auto through its clause-(a) fallback; then
// UNION ALL on sampled days under the axis's own strategy.
func setOperatorSteps() []Step {
	const ctx = seqCtx
	var steps []Step
	for _, c := range []struct {
		query, perstErr string
		rows            []string
	}{
		{`SELECT k FROM t EXCEPT SELECT k FROM s`, "sequenced EXCEPT requires constant periods",
			[]string{"2010-01-01|2010-01-20|1", "2010-03-01|2010-04-01|2"}},
		{`SELECT k FROM t INTERSECT SELECT k FROM s`, "sequenced INTERSECT requires constant periods",
			[]string{"2010-01-20|2010-02-01|1"}},
		{`SELECT k FROM t UNION SELECT k FROM s`, "sequenced UNION requires constant periods",
			[]string{"2010-01-01|2010-03-10|1", "2010-03-01|2010-04-01|2"}},
		{`SELECT distinct_keys() FROM one`, "sequenced subquery over temporal data",
			[]string{"2009-12-01|2010-01-01|0", "2010-01-01|2010-03-01|1", "2010-03-01|2010-03-10|2",
				"2010-03-10|2010-04-01|1", "2010-04-01|2010-05-01|0"}},
	} {
		q := ctx + c.query
		steps = append(steps,
			Step{Query: q, Coalesce: true, Expect: c.rows, Skip: skipPerst},
			Step{Query: q, ExpectErr: c.perstErr, Skip: skipMax},
			Step{Query: q, Auto: true, Coalesce: true, Expect: c.rows,
				ExpectExplain: []string{"strategy|MAX", "auto_reason|perst_not_transformable"}})
	}
	// The analyzer predicts the rejection of a top-level operator.
	steps = append(steps, Step{Exec: ctx + `SELECT k FROM t EXCEPT SELECT k FROM s`,
		ExpectExplain: []string{"TAU030"}, Skip: skipPerst})
	for _, c := range []struct {
		day, next string
		ks        []string
	}{
		{"2010-01-10", "2010-01-11", []string{"1"}},
		{"2010-01-16", "2010-01-17", []string{"1", "1"}},
		{"2010-01-25", "2010-01-26", []string{"1", "1", "1"}},
		{"2010-02-15", "2010-02-16", []string{"1"}},
		{"2010-03-05", "2010-03-06", []string{"1", "2"}},
		{"2010-03-20", "2010-03-21", []string{"2"}},
		{"2010-04-15", "2010-04-16", nil},
	} {
		want := []string{}
		for _, k := range c.ks {
			want = append(want, c.day+"|"+c.next+"|"+k)
		}
		steps = append(steps, Step{
			Query:  `VALIDTIME (DATE '` + c.day + `') SELECT k FROM t UNION ALL SELECT k FROM s`,
			Expect: want})
	}
	return steps
}

func skipPerst(ax Axis) string {
	if ax.Strategy == taupsm.PerStatement {
		return "answered by MAX only"
	}
	return ""
}

func skipMax(ax Axis) string {
	if ax.Strategy == taupsm.Max {
		return "rejected by PERST only"
	}
	return ""
}

// aggregateGapSteps builds the steps of sequenced-aggregate-gaps: each
// aggregate over the whole context (MAX answers, PERST rejects, auto
// equals MAX), then on sampled days against what the nontemporal query
// returns on that day's timeslice of t.
func aggregateGapSteps() []Step {
	const ctx = seqCtx
	var steps []Step
	for _, c := range []struct {
		query string
		rows  []string
	}{
		{`SELECT COUNT(*) FROM t`, []string{
			"2009-12-01|2010-01-01|0", "2010-01-01|2010-01-15|1", "2010-01-15|2010-02-01|2",
			"2010-02-01|2010-03-01|0", "2010-03-01|2010-04-01|1", "2010-04-01|2010-05-01|0"}},
		{`SELECT COUNT(*) + 1, SUM(k) FROM t`, []string{
			"2009-12-01|2010-01-01|1|NULL", "2010-01-01|2010-01-15|2|1", "2010-01-15|2010-02-01|3|2",
			"2010-02-01|2010-03-01|1|NULL", "2010-03-01|2010-04-01|2|2", "2010-04-01|2010-05-01|1|NULL"}},
		{`SELECT COUNT(*) FROM t HAVING COUNT(*) > 0`, []string{
			"2010-01-01|2010-01-15|1", "2010-01-15|2010-02-01|2", "2010-03-01|2010-04-01|1"}},
		{`SELECT k, COUNT(*) FROM t GROUP BY k`, []string{
			"2010-01-01|2010-01-15|1|1", "2010-01-15|2010-02-01|1|2", "2010-03-01|2010-04-01|2|1"}},
	} {
		q := ctx + c.query
		steps = append(steps,
			Step{Query: q, Coalesce: true, Expect: c.rows, Skip: skipPerst},
			Step{Query: q, ExpectErr: "sequenced aggregation requires constant periods", Skip: skipMax},
			Step{Query: q, Auto: true, Coalesce: true, Expect: c.rows,
				ExpectExplain: []string{"strategy|MAX", "auto_reason|perst_not_transformable"}})
	}
	// day, the next day, and COUNT(*), SUM(k) of the rows of t valid on day.
	for _, d := range [][4]string{
		{"2009-12-15", "2009-12-16", "0", "NULL"}, {"2010-01-10", "2010-01-11", "1", "1"},
		{"2010-01-20", "2010-01-21", "2", "2"}, {"2010-02-10", "2010-02-11", "0", "NULL"},
		{"2010-03-31", "2010-04-01", "1", "2"}, {"2010-04-01", "2010-04-02", "0", "NULL"},
	} {
		day, period := `VALIDTIME (DATE '`+d[0]+`') `, d[0]+"|"+d[1]+"|"
		having := []string{}
		if d[2] != "0" {
			having = append(having, period+d[2])
		}
		steps = append(steps,
			Step{Query: day + `SELECT COUNT(*), SUM(k) FROM t`, Auto: true, Expect: []string{period + d[2] + "|" + d[3]}},
			Step{Query: day + `SELECT COUNT(*) FROM t HAVING COUNT(*) > 0`, Auto: true, Expect: having})
	}
	return steps
}
