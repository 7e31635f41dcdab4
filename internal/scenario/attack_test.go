package scenario

import (
	"fmt"
	"testing"

	"github.com/splicer-pcn/splicer/internal/pcn"
)

// trimmedAttack returns a cheap variant of a registered attack scenario.
func trimmedAttack(t *testing.T, name string) Spec {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("registry is missing %q", name)
	}
	s := e.Base
	s.Topology.Nodes = 50
	s.Workload.Rate = 30
	s.Workload.Duration = 2
	s.Routing.HubCandidates = 6
	s.Attack.Start = 0.5
	if s.Attack.Duration > 1 {
		s.Attack.Duration = 1
	}
	if s.Attack.RecoverAfter > 1 {
		s.Attack.RecoverAfter = 1
	}
	return s
}

// TestAttackPanelSmoke runs a trimmed variant of each attack scenario
// through the panel runner and checks determinism across worker counts —
// the worker-invariance contract the resilience panel inherits from the
// sweep engine. Conservation is asserted inside every cell by RunScheme.
func TestAttackPanelSmoke(t *testing.T) {
	grids := map[string][]float64{
		"jamming":     {0, 20},
		"flash-crowd": {1, 15},
		"hub-outage":  {0, 2},
	}
	for name, grid := range grids {
		t.Run(name, func(t *testing.T) {
			base := trimmedAttack(t, name)
			run := func(workers int) string {
				tsr, delay, err := RunAttackPanel(base, grid, []string{"Splicer", "ShortestPath"}, RunOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%v %v", tsr, delay)
			}
			serial := run(1)
			if parallel := run(8); parallel != serial {
				t.Fatalf("8-worker attack panel diverged from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
			}
		})
	}
}

// TestAttackStaticPath pins the trace-replay composition: a spec with an
// attack block and no dynamics block runs its static trace and the attack
// on one engine, to a horizon past both, and conserves funds.
func TestAttackStaticPath(t *testing.T) {
	s := trimmedAttack(t, "jamming")
	s.Dynamics = nil
	s.Workload.CirculationFraction = 0.25
	s.Attack.Intensity = 25
	res, err := s.RunScheme(pcn.SchemeSplicer)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdversarialGenerated == 0 {
		t.Fatal("static attack run scheduled no adversarial payments")
	}
	if res.HeldTUs == 0 {
		t.Fatal("static attack run held no TUs")
	}
	// The same spec minus its attack block reproduces the unattacked cell:
	// Split(5) is drawn only when an attack is armed.
	clean := s
	clean.Attack = nil
	resClean, err := clean.RunScheme(pcn.SchemeSplicer)
	if err != nil {
		t.Fatal(err)
	}
	if resClean.AdversarialGenerated != 0 || resClean.HeldTUs != 0 {
		t.Fatalf("unattacked cell reports attack activity: %+v", resClean)
	}
	if res.Generated != resClean.Generated {
		t.Fatalf("honest Generated differs with/without attack: %d vs %d", res.Generated, resClean.Generated)
	}
}

// TestAttackOutlastsDemand pins the one run horizon: a dynamic spec whose
// attack runs past the demand's last deadline (Duration + Timeout) still
// executes to the attack's end, so every TU the jam holds is released
// before the run stops — the unwind a static attacked run always covered.
func TestAttackOutlastsDemand(t *testing.T) {
	s := trimmedAttack(t, "jamming")
	s.Attack.Intensity = 25
	s.Attack.Start = s.Workload.Duration + 2
	s.Attack.Duration = 2
	if end, demand := s.attackConfig().End(), s.Workload.Duration+s.Workload.Timeout; end <= demand {
		t.Fatalf("attack ends at %g, within the demand's %g", end, demand)
	}
	for _, scheme := range []pcn.Scheme{pcn.SchemeSplicer, pcn.SchemeShortestPath} {
		res, err := s.RunScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		if res.AdversarialGenerated == 0 || res.HeldTUs == 0 {
			t.Fatalf("%v: the late jam delivered %d payments and held %d TUs", scheme, res.AdversarialGenerated, res.HeldTUs)
		}
		if released := res.FailureReasons["held_released"]; released != res.HeldTUs {
			t.Fatalf("%v: %d of %d held TUs released before the horizon", scheme, released, res.HeldTUs)
		}
	}
}

// TestAttackSpecValidation pins the spec-level attack checks.
func TestAttackSpecValidation(t *testing.T) {
	s := JammingSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("registered jamming spec invalid: %v", err)
	}
	bad := s
	bad.Attack = &AttackSpec{Type: "ddos"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown attack type accepted")
	}
	bad = s
	bad.Attack = &AttackSpec{Type: "jamming", Intensity: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative intensity accepted")
	}
	bad = ReplaySnapshotSpec()
	bad.Attack = &AttackSpec{Type: "jamming"}
	if err := bad.Validate(); err == nil {
		t.Fatal("attack on a replay workload accepted")
	}
	bad = s
	bad.Routing.MaxInFlightTUs = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative max_in_flight_tus accepted")
	}
	if _, err := s.withParam("attack_intensity", 10); err != nil {
		t.Fatal(err)
	}
	noAttack := SmallSpec()
	if _, err := noAttack.withParam("attack_intensity", 10); err == nil {
		t.Fatal("attack_intensity sweep without an attack block accepted")
	}
}
