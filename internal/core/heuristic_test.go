package core

import (
	"errors"
	"testing"
)

// Table-driven coverage of the §VII-F heuristic: every clause, both
// sides of every threshold, and the decision reason reported for each.
func TestChooseExplained(t *testing.T) {
	tests := []struct {
		name   string
		f      Features
		want   Strategy
		reason Reason
	}{
		{
			name: "clause a: not transformable forces MAX",
			f:    Features{PerstTransformable: false, ContextDays: ShortContextDays + 1},
			want: StrategyMax, reason: ReasonNotTransformable,
		},
		{
			name: "clause a wins even when other clauses would pick PERST",
			f: Features{PerstTransformable: false, TemporalRows: SmallRowsThreshold + 1,
				ContextDays: ShortContextDays + 1},
			want: StrategyMax, reason: ReasonNotTransformable,
		},
		{
			name: "clause b: per-period cursor on a large data set",
			f: Features{PerstTransformable: true, UsesPerPeriodCursor: true,
				TemporalRows: LargeRowsThreshold, ContextDays: ShortContextDays + 1},
			want: StrategyMax, reason: ReasonPerPeriodCursor,
		},
		{
			name: "clause b does not fire below the large-rows threshold",
			f: Features{PerstTransformable: true, UsesPerPeriodCursor: true,
				TemporalRows: LargeRowsThreshold - 1, ContextDays: ShortContextDays + 1},
			want: StrategyPerStatement, reason: ReasonDefault,
		},
		{
			name: "clause b needs the cursor pattern, not just size",
			f: Features{PerstTransformable: true, UsesPerPeriodCursor: false,
				TemporalRows: LargeRowsThreshold * 100, ContextDays: ShortContextDays + 1},
			want: StrategyPerStatement, reason: ReasonDefault,
		},
		{
			name: "clause c: small database with short context",
			f: Features{PerstTransformable: true,
				TemporalRows: SmallRowsThreshold, ContextDays: ShortContextDays},
			want: StrategyMax, reason: ReasonShortContext,
		},
		{
			name: "clause c does not fire on a large database",
			f: Features{PerstTransformable: true,
				TemporalRows: SmallRowsThreshold + 1, ContextDays: ShortContextDays},
			want: StrategyPerStatement, reason: ReasonDefault,
		},
		{
			name: "clause c does not fire on a long context",
			f: Features{PerstTransformable: true,
				TemporalRows: SmallRowsThreshold, ContextDays: ShortContextDays + 1},
			want: StrategyPerStatement, reason: ReasonDefault,
		},
		{
			name: "default: PERST wins most measured configurations",
			f: Features{PerstTransformable: true,
				TemporalRows: SmallRowsThreshold + 1, ContextDays: 365},
			want: StrategyPerStatement, reason: ReasonDefault,
		},
		{
			name: "clause c is checked before clause b",
			f: Features{PerstTransformable: true, UsesPerPeriodCursor: true,
				TemporalRows: LargeRowsThreshold, ContextDays: ShortContextDays},
			want: StrategyMax, reason: ReasonShortContext,
		},
		{
			name: "clause c is checked before clause a",
			f: Features{PerstTransformable: false,
				TemporalRows: SmallRowsThreshold, ContextDays: ShortContextDays},
			want: StrategyMax, reason: ReasonShortContext,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, reason := ChooseExplained(tc.f, nil)
			if got != tc.want || reason != tc.reason {
				t.Fatalf("ChooseExplained(%+v) = (%v, %q), want (%v, %q)",
					tc.f, got, reason, tc.want, tc.reason)
			}
			if only := Choose(tc.f); only != got {
				t.Fatalf("Choose and ChooseExplained disagree: %v vs %v", only, got)
			}
		})
	}
}

// The probe is asked for only when clause (c) does not decide, and what
// it fills in is read by the clauses after (c); its error picks MAX.
func TestChooseExplainedProbesAfterClauseC(t *testing.T) {
	short := Features{TemporalRows: SmallRowsThreshold, ContextDays: ShortContextDays}
	long := Features{TemporalRows: SmallRowsThreshold, ContextDays: ShortContextDays + 1}
	probes := 0
	transformable := func(f Features) (Features, error) { probes++; f.PerstTransformable = true; return f, nil }
	if s, r := ChooseExplained(short, transformable); s != StrategyMax || r != ReasonShortContext || probes != 0 {
		t.Fatalf("short context: (%v, %q) after %d probes, want (MAX, short_context) after none", s, r, probes)
	}
	if s, r := ChooseExplained(long, transformable); s != StrategyPerStatement || r != ReasonDefault || probes != 1 {
		t.Fatalf("long context: (%v, %q) after %d probes, want (PERST, perst_default) after one", s, r, probes)
	}
	failing := func(f Features) (Features, error) { return f, errors.New("probe failed") }
	if s, r := ChooseExplained(long, failing); s != StrategyMax || r != ReasonProbeError {
		t.Fatalf("failing probe: (%v, %q), want (MAX, perst_probe_error)", s, r)
	}
}
