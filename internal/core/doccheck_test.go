package core

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lvrm/internal/netio"
	"lvrm/internal/obs"
	"lvrm/internal/packet/pool"
	"lvrm/internal/rib"
)

// retiredSeries are names OBSERVABILITY.md keeps mentioning so an operator
// can find where a series went; the registry must NOT have them.
var retiredSeries = []string{
	"lvrm_drain_migrated_total", "lvrm_drain_pins_total", // lvrm_migration_{frames_moved,pins_flipped}_total
	"lvrm_vr_replicas",      // lvrm_vr_cores
	"lvrm_vri_replica_load", // lvrm_vri_data_queue_depth
}

// TestObservabilityDocMatchesRegistry holds OBSERVABILITY.md to the registry:
// a monitor built the way lvrmd builds one at its fullest — registry, tracer,
// frame pool, RIB, flow dispatch, a UDP adapter, the Go runtime collectors —
// registers every lvrm_* family there is, and the document must name each of
// them and no series that does not exist. A histogram's _bucket/_sum/_count
// samples count as their family; `lvrm_flow_*`-style globs are not names.
func TestObservabilityDocMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.RegisterGoRuntime(reg)
	p := pool.New()
	ua, err := netio.NewUDPAdapterConfig(netio.UDPConfig{Listen: "127.0.0.1:0", Depth: 16, Pool: p})
	if err != nil {
		t.Fatal(err)
	}
	defer ua.Close()
	l, err := New(Config{
		Adapter: ua, Clock: WallClock, Obs: reg, Trace: obs.NewTracer(16),
		FramePool: p, RIB: rib.New(rib.Options{}), FlowShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The per-VR instruments register when a VR is added.
	if _, err := l.AddVR(vrCfg(t, "vr1", "10.1.0.0", 16)); err != nil {
		t.Fatal(err)
	}
	var registered []string
	for _, fam := range reg.Gather() {
		registered = append(registered, fam.Name)
	}

	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`lvrm_[a-z0-9_]*[a-z0-9]\b`).FindAllString(string(doc), -1) {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); slices.Contains(registered, base) {
				name = base
			}
		}
		documented[name] = true
	}
	for _, name := range retiredSeries {
		if slices.Contains(registered, name) {
			t.Errorf("the registry still exports %s, which OBSERVABILITY.md lists as retired", name)
		}
		delete(documented, name)
	}
	for _, name := range registered {
		if !documented[name] {
			t.Errorf("OBSERVABILITY.md omits %s, which the registry exports", name)
		}
		delete(documented, name)
	}
	for name := range documented {
		t.Errorf("OBSERVABILITY.md names %s, which the registry does not export", name)
	}
}
