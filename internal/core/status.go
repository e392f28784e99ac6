package core

import (
	"encoding/json"

	"lvrm/internal/obs"
)

// Status is a JSON-friendly snapshot of the whole monitor: the paper's
// centralized resource-monitoring role, exposed for operators (lvrmd serves
// it over HTTP).
type Status struct {
	Stats Stats      `json:"stats"`
	VRs   []VRStatus `json:"vrs"`
	// AllocReaction summarizes the modeled reallocation reaction times
	// (Experiment 2c). Zero-valued when observability is disabled.
	AllocReaction LatencySummary `json:"alloc_reaction_ns"`
}

// LatencySummary condenses a latency histogram for the status page; all
// quantiles are in nanoseconds, interpolated within histogram buckets.
type LatencySummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// summarize condenses h; a nil histogram yields the zero summary.
func summarize(h *obs.Histogram) LatencySummary {
	if h == nil || h.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
}

// VRStatus snapshots one hosted VR.
type VRStatus struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	Cores       int     `json:"cores"`
	ArrivalRate float64 `json:"arrival_fps"`
	ServiceRate float64 `json:"service_fps_per_vri"`
	Dispatched  int64   `json:"dispatched"`
	InDrops     int64   `json:"in_drops"`
	// Balancer names what picks a VRI: the configured balancer per frame,
	// or under flow dispatch "flow-<scheme>" when that balancer picks each
	// new flow's VRI and "flow-affinity" when the least-loaded VRI does.
	Balancer string `json:"balancer"`
	// QueueDepthHighWater is the deepest any VRI input queue has been since
	// start (0 when observability is disabled).
	QueueDepthHighWater int64 `json:"queue_depth_high_water"`
	// DispatchWait summarizes the dispatch-to-dequeue wait histogram
	// (zero-valued when observability is disabled).
	DispatchWait LatencySummary `json:"dispatch_wait_ns"`
	// Drain is where migrated-away queue residue went besides a destination
	// VRI (that is Migrations.FramesMoved), summed over every
	// migration-engine invocation.
	Drain DrainStats `json:"drain"`
	// Migrations counts the engine's invocations per kind plus the frames
	// and pins it has moved for this VR.
	Migrations MigrationTotals `json:"migrations"`
	// Retired sums the counters of VRIs this VR has destroyed, so totals
	// over "all VRIs ever" stay visible after the adapters are gone.
	Retired RetiredStats `json:"retired"`
	VRIs    []VRIStatus  `json:"vris"`
}

// VRIStatus snapshots one VR instance.
type VRIStatus struct {
	ID              int     `json:"id"`
	Core            int     `json:"core"`
	State           string  `json:"state"`
	Processed       int64   `json:"processed"`
	EngineDrops     int64   `json:"engine_drops"`
	OutDrops        int64   `json:"out_drops"`
	ControlHandled  int64   `json:"control_handled"`
	QueueEstimate   float64 `json:"queue_estimate"`
	DataQueueLen    int     `json:"data_queue_len"` // PendingData: ring plus staged residue
	ControlQueueLen int     `json:"control_queue_len"`
	Engine          string  `json:"engine"`
	// MigratedIn counts frames the migration engine transplanted onto this
	// instance; PartitionFlows is how many flows are currently pinned to it
	// (its replica partition size; 0 with flow dispatch off).
	MigratedIn     int64 `json:"migrated_in"`
	PartitionFlows int   `json:"partition_flows"`
	// Consumer is which goroutine of the live runtime dequeues the VRI:
	// "monitor" while it is its VR's only instance and runs to completion on
	// the monitor goroutine, "worker" otherwise.
	Consumer string `json:"consumer"`
}

// Status assembles a snapshot of the monitor and every VR/VRI. It is safe to
// call from any goroutine while the live runtime is processing traffic: the
// VR and VRI lists are copy-on-write snapshots and every field read below is
// atomic or internally locked.
func (l *LVRM) Status() Status {
	st := Status{
		Stats:         l.Stats(),
		AllocReaction: summarize(l.ins.allocReaction),
	}
	for _, v := range l.vrList() {
		vs := VRStatus{
			ID:                  v.ID,
			Name:                v.Name(),
			Cores:               v.Cores(),
			ArrivalRate:         v.ArrivalRate(),
			ServiceRate:         v.ServiceRatePerVRI(),
			Dispatched:          v.Dispatched(),
			InDrops:             v.InDrops(),
			QueueDepthHighWater: v.depthHWM.Value(),
			DispatchWait:        summarize(v.waitHist),
			Drain:               v.DrainStats(),
			Migrations:          v.Migrations(),
			Retired:             v.Retired(),
		}
		var partitions map[int]int
		switch b := v.Balancer(); {
		case v.flows == nil:
			vs.Balancer = b.Name()
		case b != nil:
			vs.Balancer = "flow-" + b.Name()
		default:
			vs.Balancer = "flow-affinity"
		}
		if v.flows != nil {
			// The published per-VRI pin counts: no slab sweep.
			partitions = v.flows.PartitionSizes()
		}
		for _, a := range v.VRIs() {
			consumer := "worker"
			if a.inline.Load() != nil {
				consumer = "monitor"
			}
			vs.VRIs = append(vs.VRIs, VRIStatus{
				ID:              a.ID,
				Core:            a.Core,
				State:           a.State().String(),
				Processed:       a.Processed(),
				EngineDrops:     a.EngineDrops(),
				OutDrops:        a.OutDrops(),
				ControlHandled:  a.ControlHandled(),
				QueueEstimate:   a.QueueEst.Estimate(),
				DataQueueLen:    a.PendingData(),
				ControlQueueLen: a.Control.In.Len(),
				Engine:          a.Engine.Name(),
				MigratedIn:      a.MigratedIn(),
				PartitionFlows:  partitions[a.ID],
				Consumer:        consumer,
			})
		}
		st.VRs = append(st.VRs, vs)
	}
	return st
}

// StatusJSON marshals Status with indentation.
func (l *LVRM) StatusJSON() ([]byte, error) {
	return json.MarshalIndent(l.Status(), "", "  ")
}
