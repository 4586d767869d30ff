package timesim

import "time"

// Resource models a serially-occupied piece of hardware in virtual
// time: a stream's compute slot, one direction of a PCIe link, a DMA
// engine. Work items reserve the resource back-to-back; a reservation
// made while the resource is busy starts when the resource frees up.
type Resource struct {
	// Name identifies the resource in traces.
	Name string

	availableAt  time.Duration
	busy         time.Duration
	reservations int
}

// NewResource returns an idle resource.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Reserve books the resource for dur starting no earlier than ready,
// and returns the actual [start, end) of the reservation. The caller
// is responsible for scheduling a completion event at end.
func (r *Resource) Reserve(ready, dur time.Duration) (start, end time.Duration) {
	start = ready
	if r.availableAt > start {
		start = r.availableAt
	}
	end = start + dur
	r.availableAt = end
	r.busy += dur
	r.reservations++
	return start, end
}

// Busy reports the total time the resource has been reserved.
func (r *Resource) Busy() time.Duration { return r.busy }

// Reservations reports how many reservations have been made.
func (r *Resource) Reservations() int { return r.reservations }

// Utilization reports busy time as a fraction of the horizon (usually
// the makespan). Returns 0 for a non-positive horizon.
func (r *Resource) Utilization(horizon time.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(r.busy) / float64(horizon)
}
