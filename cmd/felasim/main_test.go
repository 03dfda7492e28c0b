package main

import (
	"math"
	"testing"
)

func TestRunSystems(t *testing.T) {
	for _, sys := range []string{"fela", "dp", "mp", "hp"} {
		if err := run("GoogLeNet", sys, "1,1,4", "none", "", 128, 2, 1, 0, 6, 0.3); err != nil {
			t.Errorf("%s: %v", sys, err)
		}
	}
}

func TestRunStragglers(t *testing.T) {
	if err := run("GoogLeNet", "dp", "", "rr", "", 128, 2, 0, 0, 1, 0.3); err != nil {
		t.Error(err)
	}
	if err := run("GoogLeNet", "dp", "", "prob", "", 128, 2, 0, 0, 1, 0.2); err != nil {
		t.Error(err)
	}
}

func TestRunSSP(t *testing.T) {
	if err := run("GoogLeNet", "fela", "1,1,4", "none", "", 128, 2, 2, 1, 6, 0.3); err != nil {
		t.Error(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
	}{
		{"bad model", func() error { return run("nope", "fela", "", "none", "", 128, 2, 0, 0, 6, 0.3) }},
		{"bad system", func() error { return run("VGG19", "xp", "", "none", "", 128, 2, 0, 0, 6, 0.3) }},
		{"bad straggler", func() error { return run("VGG19", "dp", "", "zz", "", 128, 2, 0, 0, 6, 0.3) }},
		{"bad weights", func() error { return run("VGG19", "fela", "1,x", "none", "", 128, 2, 0, 0, 6, 0.3) }},
		{"invalid weights", func() error { return run("VGG19", "fela", "2,2,2", "none", "", 128, 2, 0, 0, 6, 0.3) }},
	}
	for _, tc := range cases {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestRunStragglerParams: a straggler delay that is NaN, infinite or
// negative, or a probability outside [0, 1] (NaN included), fails the
// run for every system whenever the scenario uses it, instead of
// panicking or running another scenario; -straggler none ignores both.
func TestRunStragglerParams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		straggler string
		d, p      float64
		ok        bool
	}{
		{"rr", nan, 0.3, false},
		{"rr", inf, 0.3, false},
		{"rr", -5, 0.3, false},
		{"rr", 0, nan, true}, // rr has no probability
		{"prob", nan, 0.3, false},
		{"prob", -5, 0.3, false},
		{"prob", 1, nan, false},
		{"prob", 1, -1, false},
		{"prob", 1, 2, false},
		{"prob", 0, 0, true},
		{"prob", 1, 1, true},
		{"none", nan, nan, true},
		{"none", -5, 2, true},
	}
	for _, sys := range []string{"fela", "dp"} {
		for _, tc := range cases {
			err := run("GoogLeNet", sys, "", tc.straggler, "", 128, 2, 0, 0, tc.d, tc.p)
			if (err == nil) != tc.ok {
				t.Errorf("%s -straggler %s -d %v -p %v: err %v, want ok=%v", sys, tc.straggler, tc.d, tc.p, err, tc.ok)
			}
		}
	}
}
