package taubench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"taupsm"
)

func TestSlowQueryLog(t *testing.T) {
	r := getRunner(t)
	var buf bytes.Buffer
	r.SlowThreshold, r.SlowLog = time.Nanosecond, &buf
	defer func() { r.SlowThreshold, r.SlowLog = 0, nil }()

	q20, _ := QueryByName("q20")
	m := r.RunSequenced(q20, taupsm.Max, 7)
	if m.Err != nil {
		t.Fatal(m.Err)
	}
	line := buf.String()
	if !strings.Contains(line, "slow query:") || !strings.Contains(line, "q20") ||
		!strings.Contains(line, "strategy=MAX") || !strings.Contains(line, "context=1w") {
		t.Fatalf("bad slow-query log line: %q", line)
	}

	// Below the threshold nothing is logged.
	buf.Reset()
	r.SlowThreshold = time.Hour
	if r.RunSequenced(q20, taupsm.Max, 7); buf.Len() != 0 {
		t.Fatalf("unexpected slow log: %q", buf.String())
	}
}
