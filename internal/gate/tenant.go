package gate

import (
	"math"
	"sort"
	"sync"
	"time"

	"fela/internal/obs"
)

// tenants tracks the per-tenant edge state: a token bucket metering the
// submit rate, a quota of in-flight jobs, and admitted/shed accounting
// for the status page and the bench's fairness index. One mutex guards
// the whole map — submissions are orders of magnitude rarer than status
// polls, which never come through here.
type tenants struct {
	rate  float64 // submit tokens/sec; <= 0 means unlimited
	burst float64 // bucket depth
	quota int     // max in-flight jobs per tenant; <= 0 means unlimited

	mu sync.Mutex
	m  map[string]*tenantState
}

type tenantState struct {
	tokens   float64
	last     time.Time
	inflight int
	admitted int64
	shed     int64
	// slo accumulates per-tenant attainment (settled OK within SLO vs
	// missed/shed) for the multi-window burn-rate view.
	slo *obs.Window
}

func newTenants(rate float64, burst, quota int) *tenants {
	b := float64(burst)
	if b <= 0 {
		b = math.Ceil(rate)
		if b < 1 {
			b = 1
		}
	}
	return &tenants{rate: rate, burst: b, quota: quota, m: map[string]*tenantState{}}
}

// state returns the tenant's entry, creating it with a full bucket.
// Caller holds mu.
func (t *tenants) state(name string, now time.Time) *tenantState {
	ts, ok := t.m[name]
	if !ok {
		ts = &tenantState{tokens: t.burst, last: now, slo: obs.NewWindow()}
		t.m[name] = ts
	}
	return ts
}

// allow consumes one submit token; when the bucket is dry it returns
// how long until a token refills — the Retry-After the client sees.
func (t *tenants) allow(name string, now time.Time) (ok bool, retry time.Duration) {
	if t.rate <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.state(name, now)
	if dt := now.Sub(ts.last).Seconds(); dt > 0 {
		ts.tokens = math.Min(t.burst, ts.tokens+dt*t.rate)
		ts.last = now
	}
	if ts.tokens >= 1 {
		ts.tokens--
		return true, 0
	}
	return false, time.Duration((1 - ts.tokens) / t.rate * float64(time.Second))
}

// acquire reserves one in-flight quota slot; release returns it when
// the job settles.
func (t *tenants) acquire(name string, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.state(name, now)
	if t.quota > 0 && ts.inflight >= t.quota {
		return false
	}
	ts.inflight++
	return true
}

func (t *tenants) release(name string) {
	t.mu.Lock()
	if ts, ok := t.m[name]; ok && ts.inflight > 0 {
		ts.inflight--
	}
	t.mu.Unlock()
}

func (t *tenants) markAdmitted(name string, now time.Time) {
	t.mu.Lock()
	t.state(name, now).admitted++
	t.mu.Unlock()
}

func (t *tenants) markShed(name string, now time.Time) {
	t.mu.Lock()
	ts := t.state(name, now)
	ts.shed++
	// A shed submission is a miss the tenant experienced: it burns the
	// tenant's error budget even though no shard ever saw the job.
	ts.slo.Observe(false, now)
	t.mu.Unlock()
}

// observeSLO lands one settled job's attainment in the tenant's burn
// window.
func (t *tenants) observeSLO(name string, ok bool, now time.Time) {
	t.mu.Lock()
	t.state(name, now).slo.Observe(ok, now)
	t.mu.Unlock()
}

// TenantStatus is the /v1/gate view of one tenant.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	// Inflight is the tenant's admitted-but-unsettled job count (the
	// quantity the quota bounds).
	Inflight int `json:"inflight"`
	// Admitted and Shed count edge decisions since the gateway started.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed,omitempty"`
	// SLOBurn5m / SLOBurn1h are the tenant's burn rates: miss fraction
	// over the window divided by the error budget (1 - objective).
	SLOBurn5m float64 `json:"slo_burn_5m"`
	SLOBurn1h float64 `json:"slo_burn_1h"`
}

func (t *tenants) snapshot(objective float64, now time.Time) []TenantStatus {
	t.mu.Lock()
	out := make([]TenantStatus, 0, len(t.m))
	for name, ts := range t.m {
		out = append(out, TenantStatus{
			Tenant: name, Inflight: ts.inflight,
			Admitted: ts.admitted, Shed: ts.shed,
			SLOBurn5m: ts.slo.Burn(5*time.Minute, objective, now),
			SLOBurn1h: ts.slo.Burn(time.Hour, objective, now),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
