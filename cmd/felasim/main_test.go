package main

import (
	"math"
	"testing"
)

// opts is a GoogLeNet run of two 128-sample iterations on system with
// the remaining flags at their defaults.
func opts(system string) simOpts {
	return simOpts{model: "GoogLeNet", system: system, straggler: "none", batch: 128, iters: 2, d: 6, p: 0.3}
}

func TestRunSystems(t *testing.T) {
	for _, sys := range []string{"fela", "dp", "mp", "hp"} {
		o := opts(sys)
		o.weights, o.subset = "1,1,4", 1
		if err := run(o); err != nil {
			t.Errorf("%s: %v", sys, err)
		}
	}
}

func TestRunStragglers(t *testing.T) {
	o := opts("dp")
	o.straggler, o.d = "rr", 1
	if err := run(o); err != nil {
		t.Error(err)
	}
	o.straggler, o.p = "prob", 0.2
	if err := run(o); err != nil {
		t.Error(err)
	}
}

func TestRunSSP(t *testing.T) {
	o := opts("fela")
	o.weights, o.subset, o.staleness = "1,1,4", 2, 1
	if err := run(o); err != nil {
		t.Error(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		edit func(*simOpts)
	}{
		{"bad model", func(o *simOpts) { o.model = "nope" }},
		{"bad system", func(o *simOpts) { o.model, o.system = "VGG19", "xp" }},
		{"bad straggler", func(o *simOpts) { o.model, o.system, o.straggler = "VGG19", "dp", "zz" }},
		{"bad weights", func(o *simOpts) { o.model, o.weights = "VGG19", "1,x" }},
		{"invalid weights", func(o *simOpts) { o.model, o.weights = "VGG19", "2,2,2" }},
	}
	for _, tc := range cases {
		o := opts("fela")
		tc.edit(&o)
		if err := run(o); err == nil {
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
			o := opts(sys)
			o.straggler, o.d, o.p = tc.straggler, tc.d, tc.p
			err := run(o)
			if (err == nil) != tc.ok {
				t.Errorf("%s -straggler %s -d %v -p %v: err %v, want ok=%v", sys, tc.straggler, tc.d, tc.p, err, tc.ok)
			}
		}
	}
}
