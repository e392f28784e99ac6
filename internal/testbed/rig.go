package testbed

import (
	"time"

	"lvrm/internal/balance"
	"lvrm/internal/core"
	"lvrm/internal/netio"
	"lvrm/internal/packet"
	"lvrm/internal/sim"
)

// RigOpts parameterizes a standard Figure 4.1 rig: the two-switch topology
// around an LVRM gateway hosting the given VRs. It is the assembly shared by
// internal/experiments (the paper's figures) and internal/bench (the
// multi-trial adversarial scenarios), so both measure the same system.
type RigOpts struct {
	// Mechanism selects the socket adapter cost model.
	Mechanism netio.Mechanism
	// Affinity is the VRI placement mode (Experiment 2a); zero = auto.
	Affinity AffinityMode
	// ExtraDispatchCost adds per-frame monitor-core dispatch cost (e.g.
	// flow-based connection tracking).
	ExtraDispatchCost time.Duration
	// AllocPeriod paces core re-allocation (0 = the monitor default, 1 s).
	AllocPeriod time.Duration
	// AllowSharedLVRMCore over-subscribes the monitor core when VRIs
	// outnumber free cores.
	AllowSharedLVRMCore bool
	// FlowShards/FlowTableCap enable flow-aware sharded dispatch
	// (core.Config.FlowShards); zero keeps the balancer path.
	FlowShards   int
	FlowTableCap int
	// MaxReplicas lets each VR run up to that many flow-partitioned replica
	// VRIs under the split/fold controller (requires FlowShards > 0).
	// SplitFold tunes the controller; zero fields take defaults.
	MaxReplicas int
	SplitFold   balance.SplitFoldConfig
	// QueueLimit overrides the links' droptail depth (0 = topology default).
	QueueLimit int
	// Seed feeds the gateway's placement randomness.
	Seed uint64
	// OnControl observes every control event a VRI consumes.
	OnControl func(ev *core.ControlEvent, at int64)
	// VRs are registered on the gateway in order (at least one required).
	VRs []core.VRConfig
}

// Rig is one assembled testbed instance: a fresh engine, the Figure 4.1
// topology, and the LVRM gateway under test. Each trial must build its own
// Rig so runs stay independent (the PASTRAMI requirement the multi-trial
// harness enforces).
type Rig struct {
	Eng  *sim.Engine
	Topo *Topology
	GW   *LVRMGateway
}

// NewRig assembles the topology around a fresh LVRM gateway hosting
// opts.VRs.
func NewRig(opts RigOpts) (*Rig, error) {
	eng := sim.New()
	r := &Rig{Eng: eng}
	topo, err := NewTopology(eng, TopologyConfig{QueueLimit: opts.QueueLimit}, func(out func(*packet.Frame, int)) (Gateway, error) {
		gw, err := NewLVRMGateway(LVRMGatewayConfig{
			Eng:                 eng,
			Mechanism:           opts.Mechanism,
			Affinity:            opts.Affinity,
			ExtraDispatchCost:   opts.ExtraDispatchCost,
			AllocPeriod:         opts.AllocPeriod,
			AllowSharedLVRMCore: opts.AllowSharedLVRMCore,
			FlowShards:          opts.FlowShards,
			FlowTableCap:        opts.FlowTableCap,
			MaxReplicas:         opts.MaxReplicas,
			SplitFold:           opts.SplitFold,
			Seed:                opts.Seed,
			Out:                 out,
			OnControl:           opts.OnControl,
		})
		if err != nil {
			return nil, err
		}
		r.GW = gw
		for _, cfg := range opts.VRs {
			if _, err := gw.AddVR(cfg); err != nil {
				return nil, err
			}
		}
		return gw, nil
	})
	if err != nil {
		return nil, err
	}
	r.Topo = topo
	return r, nil
}
