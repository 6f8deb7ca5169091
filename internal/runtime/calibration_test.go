package runtime

import (
	"context"
	"fmt"
	"testing"

	"rfly/internal/fault"
	"rfly/internal/obs"
	"rfly/internal/sim"
)

// The relay's isolation is measured once per mission and carried; every
// later build is given that calibration. These tests pin the two halves
// of that contract: the relay's VGAs always hold the recorded gain plan
// (after a rebuild, a Restore, a ReprogramGains and a swarm install), and
// a carried rebuild performs no isolation measurement.

// vgaMismatch describes how a deployment's relay VGAs disagree with its
// recorded gain plan, or returns "" when they agree.
func vgaMismatch(d *sim.Deployment) string {
	down, up := d.Relay.DownVGA.GainDB(), d.Relay.UpVGA.GainDB()
	if down != d.Gains.DownVGADB || up != d.Gains.UpVGADB {
		return fmt.Sprintf("VGAs %.2f/%.2f dB, recorded plan %.2f/%.2f dB",
			down, up, d.Gains.DownVGADB, d.Gains.UpVGADB)
	}
	return ""
}

func checkVGAs(t *testing.T, where string, d *sim.Deployment) {
	t.Helper()
	if m := vgaMismatch(d); m != "" {
		t.Errorf("%s: %s", where, m)
	}
}

// buildMeasured returns the "measured" attribute of every runtime.build
// span in recording order.
func buildMeasured(t *testing.T, spans []obs.SpanRecord) []bool {
	t.Helper()
	var out []bool
	for _, s := range spans {
		if s.Name != "runtime.build" {
			continue
		}
		a, ok := s.Attr("measured")
		if !ok {
			t.Fatalf("runtime.build span %d has no measured attribute", s.ID)
		}
		out = append(out, a.Num != 0)
	}
	return out
}

// TestRebuildProgramsCarriedPlan walks the seam step by step: collapse →
// ReprogramGains → extractCarryover → buildDeployment, then Restore from
// the checkpoint holding that carryover, then a fresh ReprogramGains.
func TestRebuildProgramsCarriedPlan(t *testing.T) {
	cfg := testConfig(7)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)

	d, _ := e.buildDeployment(ctx, 1)
	checkVGAs(t, "first build", d)
	measuredPlan := d.Gains
	if err := d.ApplyFault(fault.Event{Class: fault.IsolationCollapse, Severity: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReprogramGains(); err != nil {
		t.Fatal(err)
	}
	checkVGAs(t, "after ReprogramGains", d)
	if d.Gains == measuredPlan {
		t.Fatal("collapse recovery left the gain plan unchanged; the test is vacuous")
	}
	e.carry = e.extractCarryover(d)

	rebuilt, _ := e.buildDeployment(ctx, 2)
	checkVGAs(t, "carried rebuild", rebuilt)
	if rebuilt.Gains != e.carry.Gains || rebuilt.Iso != e.carry.Iso {
		t.Errorf("carried rebuild recorded plan %+v / iso %+v, carried %+v / %+v",
			rebuilt.Gains, rebuilt.Iso, e.carry.Gains, e.carry.Iso)
	}

	restored, err := Restore(cfg, e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := restored.buildDeployment(ctx, 3)
	checkVGAs(t, "rebuild after Restore", resumed)
	if resumed.Gains != e.carry.Gains {
		t.Errorf("restored rebuild recorded plan %+v, carried %+v", resumed.Gains, e.carry.Gains)
	}
	if _, err := resumed.ReprogramGains(); err != nil {
		t.Fatal(err)
	}
	checkVGAs(t, "ReprogramGains after Restore", resumed)

	got := buildMeasured(t, rec.Snapshot())
	want := []bool{true, false, false}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("runtime.build measured = %v, want %v: only the mission's first build measures isolation", got, want)
	}
}

// collapseAt adds an isolation collapse at an absolute mission tick; the
// supervisor's replan rung answers it with ReprogramGains.
func collapseAt(cfg Config, tick int) Config {
	ev := fault.Event{Class: fault.IsolationCollapse, Start: tick, Severity: 1}
	cfg.Schedule = fault.Schedule{Events: append(append([]fault.Event(nil), cfg.Schedule.Events...), ev)}
	return cfg
}

// TestMissionVGAsTrackPlan flies whole missions, killed and resumed at
// the first boundary, and checks the VGAs against the record on every
// tick: across the supervisor's mid-sortie ReprogramGains, each carried
// rebuild, the Restore, and (for the swarm) the install of a promoted
// primary.
func TestMissionVGAsTrackPlan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		swarm bool
	}{
		{"single", collapseAt(testConfig(7), 8), false},
		{"swarm-failover", collapseAt(killAt(swarmConfig(7), 45), 8), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plans := map[float64]bool{}
			var mismatches int
			observe := func(o TickObs) {
				plans[o.Deployment.Gains.DownVGADB] = true
				if m := vgaMismatch(o.Deployment); m != "" {
					if mismatches == 0 {
						t.Errorf("sortie %d tick %d: %s", o.Sortie, o.Tick, m)
					}
					mismatches++
				}
			}
			fly := func(e *Engine, ctx context.Context) (promotions int) {
				e.Observer = observe
				for e.SortiesDone() < tc.cfg.Sorties {
					res, err := e.RunSortie(ctx)
					if err != nil {
						t.Fatal(err)
					}
					promotions += res.Promotions
				}
				return promotions
			}
			defer func() {
				if mismatches > 0 {
					t.Errorf("%d ticks flew with VGAs off the recorded plan", mismatches)
				}
			}()

			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Observer = observe
			if _, err := e.RunSortie(context.Background()); err != nil {
				t.Fatal(err)
			}
			ckpt := e.Snapshot()
			promotions := fly(e, context.Background())
			if len(plans) < 2 {
				t.Fatal("the collapse was never reprogrammed; the test is vacuous")
			}
			if tc.swarm && promotions == 0 {
				t.Fatal("the kill promoted no shadow; the test is vacuous")
			}

			restored, err := Restore(tc.cfg, ckpt)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(0)
			fly(restored, obs.WithRecorder(context.Background(), rec))
			for i, m := range buildMeasured(t, rec.Snapshot()) {
				if m {
					t.Errorf("resumed build %d measured isolation; the carried calibration was ignored", i)
				}
			}
		})
	}
}
