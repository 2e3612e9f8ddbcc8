package engine

import (
	"fmt"

	"taupsm/internal/types"
)

// callBuiltin runs the library function a call site bound (nil: the name
// is none). Arguments are evaluated first, left to right — COALESCE's
// lazily — so an argument that raises does so before a wrong count or an
// unknown name is reported.
func (db *DB) callBuiltin(ctx *execCtx, s *callSite, bi *types.Builtin) (types.Value, error) {
	var t types.Value
	if bi != nil && bi.Lazy {
		for i := range s.args {
			v, err := s.args[i].get(ctx, &t)
			if err != nil {
				return types.Null, err
			}
			if !v.IsNull() {
				return *v, nil
			}
		}
		return types.Null, nil
	}
	var few [4]types.Value // as in callFunction: the arguments stay off the heap
	args := few[:]
	if len(s.args) > len(few) {
		args = make([]types.Value, len(s.args))
	}
	args = args[:len(s.args)]
	for i := range s.args {
		v, err := s.args[i].get(ctx, &t)
		if err != nil {
			return types.Null, err
		}
		args[i] = *v
	}
	if bi == nil {
		return types.Null, fmt.Errorf("unknown function %s", s.fc.Name)
	}
	if err := bi.Arity(s.fc.Name, len(args)); err != nil {
		return types.Null, err
	}
	if bi.Clock {
		return types.NewDate(db.Now), nil
	}
	return bi.Call(args)
}
