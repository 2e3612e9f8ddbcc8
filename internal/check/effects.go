package check

import (
	"taupsm/internal/sqlast"
)

// ChunkOrderSafe reports that no top-level query block orders or
// limits across periods, so chunked evaluation keeps result order. It
// is the statement-shape half of the stratum's parallel gate; the
// effect half is Summary.SharedWriteFree.
func ChunkOrderSafe(q sqlast.QueryExpr) bool {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		return len(x.OrderBy) == 0 && x.Limit == nil
	case *sqlast.SetOpExpr:
		if len(x.OrderBy) > 0 {
			return false
		}
		return ChunkOrderSafe(x.L) && ChunkOrderSafe(x.R)
	case *sqlast.ValuesExpr:
		return true
	}
	return false
}

func routineBody(cat Catalog, name string) sqlast.Stmt {
	if fn := cat.Function(name); fn != nil {
		return fn.Body
	}
	if pr := cat.Procedure(name); pr != nil {
		return pr.Body
	}
	return nil
}
