package main

import "testing"

func TestParseSize(t *testing.T) {
	for in, want := range map[string]string{
		"SMALL": "SMALL", "s": "SMALL", "medium": "MEDIUM", "L": "LARGE",
	} {
		sz, err := parseSize(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if sz.String() != want {
			t.Fatalf("%q: got %s want %s", in, sz, want)
		}
	}
	if _, err := parseSize("gigantic"); err == nil {
		t.Fatal("expected error for unknown size")
	}
}

func TestRunLoC(t *testing.T) {
	if err := run("loc", "DS1", "SMALL", "", 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweepFiltered(t *testing.T) {
	// One query on DS1-SMALL: fast enough for a unit test.
	if err := run("sweep", "DS1", "SMALL", "q20", 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunOverhead(t *testing.T) {
	if err := run("overhead", "DS1", "SMALL", "", 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", "DS1", "SMALL", "", 1, 0); err == nil {
		t.Fatal("expected error")
	}
	if err := run("sweep", "DS9", "SMALL", "", 1, 0); err == nil {
		t.Fatal("expected unknown-dataset error")
	}
	if err := run("sweep", "DS1", "HUGE", "", 1, 0); err == nil {
		t.Fatal("expected unknown-size error")
	}
}
