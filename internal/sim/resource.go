package sim

// Resource models a server with fixed capacity and a FIFO wait queue.
// GPUs are capacity-1 resources; each direction of a NIC is a capacity-1
// resource; a multi-queue device would use a larger capacity.
//
// Acquire enqueues a request; when a unit becomes available the request's
// callback runs with the engine clock at the grant time. The holder must
// call Release exactly once per grant.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  []func()

	// Busy accumulates the total busy time (units x seconds) for
	// utilization accounting.
	busy      float64
	lastCheck float64
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// InUse reports the number of currently granted units.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) account() {
	now := r.eng.Now()
	r.busy += float64(r.inUse) * (now - r.lastCheck)
	r.lastCheck = now
}

// BusyTime reports accumulated busy unit-seconds up to the current clock.
func (r *Resource) BusyTime() float64 {
	r.account()
	return r.busy
}

// Acquire requests one unit. fn runs (via the event queue) once the unit
// is granted. FIFO order is guaranteed among waiters.
func (r *Resource) Acquire(fn func()) {
	r.account()
	if r.inUse < r.capacity {
		r.inUse++
		r.eng.Immediately(fn)
		return
	}
	r.waiters = append(r.waiters, fn)
}

// TryAcquire grants a unit immediately if one is free and reports whether
// it did. Unlike Acquire it never queues.
func (r *Resource) TryAcquire() bool {
	r.account()
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit and wakes the head waiter, if any.
func (r *Resource) Release() {
	r.account()
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.eng.Immediately(next)
		return
	}
	r.inUse--
}

// Use acquires the resource, holds it for d seconds, then releases it and
// runs done. It is the common pattern for modelling a timed occupation
// such as a GPU kernel or a wire transfer.
func (r *Resource) Use(d float64, done func()) {
	r.Acquire(func() {
		r.eng.After(d, func() {
			r.Release()
			if done != nil {
				done()
			}
		})
	})
}
