package engine

import (
	"fmt"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// execCtx carries the dynamic state of one evaluation: the row scope
// chain for correlated evaluation, the invocation whose slots its
// variables are and the scope of the statement running (in a routine
// body, or a block run at top level), the frame of a statement run at top
// level, and a recursion depth guard.
type execCtx struct {
	db      *DB
	act     *activation // the invocation, or the block run at top level: its slots and cursors
	env     *scope      // the scope of the statement running; nil at top level
	vars    *varFrame   // at top level: the statement's frame (ExecStmtWithTables)
	scope   *rowScope
	depth   int
	planRec *planRecorder // non-nil only while building a cached plan
	memo    *fnMemoState  // per-statement function-result memo (nil = off)
	journal *Journal      // undo/redo journal of the enclosing statement (nil = unjournaled)
}

// rowScope is one level of FROM-clause bindings: metas names the
// level's correlation entries, rows[i] is the row entry i currently
// contributes (nil while the entry is not part of the operator being
// evaluated), and parent points to the enclosing query's scope (for
// correlated subqueries). While an aggregating SELECT outputs a group,
// one more row follows the entries': the values of its aggregates.
type rowScope struct {
	parent *rowScope
	metas  []storage.Binding
	rows   [][]types.Value
}

func (db *DB) evalScalarSubquery(ctx *execCtx, q sqlast.QueryExpr) (types.Value, error) {
	m, cols, rows, err := db.stackQuery(ctx, q, 2)
	defer db.pop(m)
	if err != nil {
		return types.Null, err
	}
	if len(cols) != 1 {
		return types.Null, fmt.Errorf("scalar subquery must return one column, got %d", len(cols))
	}
	switch len(rows) {
	case 0:
		return types.Null, nil
	case 1:
		return rows[0][0], nil
	}
	return types.Null, fmt.Errorf("scalar subquery returned more than one row")
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pat string) bool {
	// dynamic programming over pattern and string positions
	return likeRec(s, pat)
}

func likeRec(s, pat string) bool {
	for len(pat) > 0 {
		switch pat[0] {
		case '%':
			for len(pat) > 0 && pat[0] == '%' {
				pat = pat[1:]
			}
			if len(pat) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], pat) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, pat = s[1:], pat[1:]
		default:
			if len(s) == 0 || s[0] != pat[0] {
				return false
			}
			s, pat = s[1:], pat[1:]
		}
	}
	return len(s) == 0
}

// cast is CAST: v converted to t's kind (types.Convert), and a CHAR or
// VARCHAR of a declared length cut to it. An assignment converts without
// cutting.
func cast(v types.Value, t sqlast.TypeName) (types.Value, error) {
	k := t.Kind()
	if !v.IsNull() && (k == types.KindNull || k == types.KindTable) {
		return types.Null, fmt.Errorf("unsupported cast target %s", t.SQL())
	}
	v, err := types.Convert(v, k)
	if err == nil && v.Kind == types.KindString && t.Length > 0 && len(v.S) > t.Length && (t.Base == "CHAR" || t.Base == "VARCHAR") {
		v.S = v.S[:t.Length]
	}
	return v, err
}
