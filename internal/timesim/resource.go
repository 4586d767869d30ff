package timesim

import "time"

// Resource models a serially-occupied piece of hardware in virtual
// time: a stream's compute slot, one direction of a PCIe link, a DMA
// engine. Work items reserve the resource back-to-back; a reservation
// made while the resource is busy starts when the resource frees up.
type Resource struct {
	// Name identifies the resource in traces.
	Name string

	availableAt time.Duration
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
	return start, end
}
