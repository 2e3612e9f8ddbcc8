package taubench

import (
	"strings"
	"testing"
)

func TestMeasureOverhead(t *testing.T) {
	r := getRunner(t)
	o := r.MeasureOverhead(7, 1)
	if o.OffNS <= 0 || o.OffRepeatNS <= 0 || o.SampledNS <= 0 {
		t.Fatalf("workload totals not measured: %+v", o)
	}
	if r.DB.TraceSampling() != 0 {
		t.Fatal("MeasureOverhead left sampling on")
	}
	// The sampled pass really landed spans in the buffer.
	if r.DB.TraceBuffer().Total() == 0 {
		t.Fatal("sampled pass recorded no spans")
	}
	if out := o.String(); !strings.Contains(out, "context 1w") || !strings.Contains(out, "noise bound") {
		t.Fatalf("unexpected rendering:\n%s", out)
	}
}
