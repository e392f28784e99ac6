package testbed

import (
	"lvrm/internal/core"
	"lvrm/internal/packet"
	"lvrm/internal/sim"
)

// RigOpts parameterizes a standard Figure 4.1 rig: the two-switch topology
// around an LVRM gateway hosting the given VRs. It is the assembly shared by
// internal/experiments (the paper's figures) and internal/bench (the
// multi-trial adversarial scenarios), so both measure the same system.
type RigOpts struct {
	// Gateway configures the LVRM gateway and, through its Monitor field,
	// the monitor under test. NewRig supplies Eng and Out.
	Gateway LVRMGatewayConfig
	// QueueLimit overrides the links' droptail depth (0 = topology default).
	QueueLimit int
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
		opts.Gateway.Eng, opts.Gateway.Out = eng, out
		gw, err := NewLVRMGateway(opts.Gateway)
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
