package workload

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func testMix() Mix { return DefaultMix(200 * time.Microsecond) }

// TestSynthesizeDeterministic: the same seed must reproduce the trace
// exactly, and a different seed must not.
func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(Poisson{Rate: 50}, testMix(), 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(Poisson{Rate: 50}, testMix(), 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := Synthesize(Poisson{Rate: 50}, testMix(), 100, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical traces")
	}
	// Bursty generators carry phase state; a fresh value must reset it.
	b1, _ := Synthesize(&Bursty{BaseRate: 10, BurstRate: 200, BaseDwell: time.Second, BurstDwell: 200 * time.Millisecond}, testMix(), 100, 7)
	b2, _ := Synthesize(&Bursty{BaseRate: 10, BurstRate: 200, BaseDwell: time.Second, BurstDwell: 200 * time.Millisecond}, testMix(), 100, 7)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("bursty trace not reproducible from a fresh generator")
	}
}

// TestSynthesizeSpecsValid: every sampled spec must divide cleanly and
// respect the preset dataset bound, with non-decreasing offsets and
// positive SLOs.
func TestSynthesizeSpecsValid(t *testing.T) {
	tr, err := Synthesize(Poisson{Rate: 100}, testMix(), 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := time.Duration(-1)
	for i, e := range tr.Events {
		if e.At < prev {
			t.Fatalf("event %d offset %v before previous %v", i, e.At, prev)
		}
		prev = e.At
		s := e.Spec
		if s.Iterations <= 0 || s.TokenBatch <= 0 || s.TotalBatch%s.TokenBatch != 0 {
			t.Fatalf("event %d spec has bad shape: %+v", i, s)
		}
		if s.TotalBatch > 512 {
			t.Fatalf("event %d total batch %d exceeds preset dataset", i, s.TotalBatch)
		}
		if s.MinWorkers < 1 || (s.MaxWorkers > 0 && s.MinWorkers > s.MaxWorkers) {
			t.Fatalf("event %d worker bounds invalid: %+v", i, s)
		}
		if e.SLO <= 0 {
			t.Fatalf("event %d has no SLO", i)
		}
	}
}

// TestPoissonMeanGap: the empirical mean inter-arrival time must sit
// near 1/rate.
func TestPoissonMeanGap(t *testing.T) {
	const rate = 200.0
	r := rand.New(rand.NewSource(3))
	g := Poisson{Rate: rate}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Gap(r, 0)
	}
	mean := sum.Seconds() / n
	if want := 1 / rate; math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("poisson mean gap %.6fs, want ~%.6fs", mean, want)
	}
}

// cov is the coefficient of variation of the gaps a generator emits —
// 1 for Poisson, >1 for bursty streams.
func cov(g Generator, n int, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n)
	at := time.Duration(0)
	var sum float64
	for i := range gaps {
		d := g.Gap(r, at)
		at += d
		gaps[i] = d.Seconds()
		sum += gaps[i]
	}
	mean := sum / float64(n)
	var sq float64
	for _, x := range gaps {
		sq += (x - mean) * (x - mean)
	}
	return math.Sqrt(sq/float64(n)) / mean
}

// TestBurstyIsBurstier: the MMPP stream must show materially higher
// gap variability than a Poisson stream of any rate.
func TestBurstyIsBurstier(t *testing.T) {
	b := &Bursty{BaseRate: 10, BurstRate: 500, BaseDwell: 2 * time.Second, BurstDwell: 200 * time.Millisecond}
	if c := cov(b, 20000, 11); c < 1.3 {
		t.Fatalf("bursty CoV %.3f, want > 1.3 (Poisson is 1.0)", c)
	}
	if c := cov(Poisson{Rate: 100}, 20000, 11); c > 1.1 || c < 0.9 {
		t.Fatalf("poisson CoV %.3f, want ~1.0", c)
	}
}

// TestDiurnalShape: arrivals must pile up in the peak half-cycle.
func TestDiurnalShape(t *testing.T) {
	d := Diurnal{MeanRate: 100, Period: 10 * time.Second, Amplitude: 0.9}
	r := rand.New(rand.NewSource(5))
	peak, trough := 0, 0
	at := time.Duration(0)
	for i := 0; i < 20000; i++ {
		at += d.Gap(r, at)
		if at%d.Period < d.Period/2 {
			peak++ // sin > 0: the first half-cycle is the busy half
		} else {
			trough++
		}
	}
	if peak < trough*2 {
		t.Fatalf("diurnal peak/trough split %d/%d, want peak ≥ 2× trough", peak, trough)
	}
	tr, err := Synthesize(d, testMix(), 8, 5)
	if err != nil || tr.Generator != "diurnal" || tr.Name != "diurnal-8" {
		t.Fatalf("diurnal trace named %q by generator %q (%v)", tr.Name, tr.Generator, err)
	}
}

// TestTraceRoundTrip: encode→decode must reproduce the trace exactly,
// and encoding must be byte-stable.
func TestTraceRoundTrip(t *testing.T) {
	tr, err := Synthesize(Poisson{Rate: 50}, testMix(), 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Generator != tr.Generator || got.Seed != tr.Seed {
		t.Fatalf("meta mismatch: got %q/%q/%d", got.Name, got.Generator, got.Seed)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatal("events did not round-trip")
	}
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatal("re-encoding a decoded trace changed the bytes")
	}
}

// TestDecodeRejectsDisorder: a trace whose offsets go backwards is
// rejected with a line number.
func TestDecodeRejectsDisorder(t *testing.T) {
	const body = `{"at_ns":1000,"spec":{"Iterations":1,"TotalBatch":8,"TokenBatch":8}}
{"at_ns":500,"spec":{"Iterations":1,"TotalBatch":8,"TokenBatch":8}}
`
	if _, err := Decode(bytes.NewReader([]byte(body))); err == nil {
		t.Fatal("out-of-order trace decoded without error")
	}
}

// TestRecorderRoundTrip: recorded arrivals replay as a normal trace.
func TestRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	clock := time.Unix(0, 0)
	rec.now = func() time.Time { return clock }
	specs, err := Synthesize(Poisson{Rate: 50}, testMix(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range specs.Events {
		clock = time.Unix(0, 0).Add(time.Duration(i) * time.Millisecond)
		if err := rec.Record(e.Spec, e.SLO); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 5 {
		t.Fatalf("recorded %d events, want 5", len(got.Events))
	}
	for i, e := range got.Events {
		if e.At != time.Duration(i)*time.Millisecond {
			t.Fatalf("event %d offset %v, want %v", i, e.At, time.Duration(i)*time.Millisecond)
		}
		if e.Spec.Name != specs.Events[i].Spec.Name {
			t.Fatalf("event %d spec name %q, want %q", i, e.Spec.Name, specs.Events[i].Spec.Name)
		}
	}
}

// TestReplayTiming: replay fires every event, in order, honoring the
// speedup, and stops early when asked.
func TestReplayTiming(t *testing.T) {
	tr := Trace{Events: []Event{
		{At: 0}, {At: 100 * time.Millisecond}, {At: 200 * time.Millisecond},
	}}
	for i := range tr.Events {
		tr.Events[i].Spec.Iterations = i // marker
	}
	var got []int
	start := time.Now()
	n := Replay(tr, 10, nil, func(e Event) { got = append(got, e.Spec.Iterations) })
	elapsed := time.Since(start)
	if n != 3 || !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("replay fired %d events (%v), want all 3 in order", n, got)
	}
	// 200ms of trace at 10× is 20ms of wall clock; allow generous slack.
	if elapsed < 15*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("replay took %v, want ~20ms", elapsed)
	}

	stop := make(chan struct{})
	close(stop)
	if n := Replay(tr, 1, stop, func(Event) {}); n > 1 {
		t.Fatalf("stopped replay fired %d events, want ≤ 1", n)
	}
}
