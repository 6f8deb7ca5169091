package main

import (
	"reflect"
	"testing"
	"time"

	"rfly/internal/obs"
)

func TestScheduleRepeatsPerSeed(t *testing.T) {
	for _, o := range []openLoop{serveOpen, federateOpen} {
		a, b := o.schedule(7, 20), o.schedule(7, 20)
		if len(a) == 0 {
			t.Fatal("empty schedule")
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed 7 gave two different schedules")
		}
		c := o.schedule(8, 20)
		n := min(len(a), len(c))
		sameTimes, sameMix := true, true
		for i := 0; i < n; i++ {
			sameTimes = sameTimes && a[i].at == c[i].at
			sameMix = sameMix && reflect.DeepEqual(a[i].req, c[i].req)
		}
		if sameTimes || sameMix {
			t.Errorf("seeds 7 and 8: same arrival times %v, same request mix %v; a new seed must change both", sameTimes, sameMix)
		}
	}
}

func TestScheduleRateAndMix(t *testing.T) {
	const seconds = 200
	arrs := serveOpen.schedule(3, seconds)
	rate := float64(len(arrs)) / seconds
	if rate < 0.9*serveOpen.rps || rate > 1.1*serveOpen.rps {
		t.Errorf("offered %.1f rps, want about %v", rate, serveOpen.rps)
	}
	sar := 0
	for i, a := range arrs {
		if i > 0 && a.at < arrs[i-1].at {
			t.Fatalf("arrival %d before its predecessor", i)
		}
		if a.sar {
			sar++
			if !a.req.Exclusive || a.req.Seed == 0 || a.req.SARPoints != sarPoints {
				t.Fatalf("SAR request not exclusive and explicitly seeded: %+v", a.req)
			}
			if a.req.ChannelHz != sarChannelHz {
				t.Fatalf("SAR request off the SAR channel plan: %+v", a.req)
			}
		} else if len(a.req.Tags) < 1 || len(a.req.Tags) > 4 || a.req.Exclusive || a.req.ChannelHz == sarChannelHz {
			t.Fatalf("inventory request out of shape: %+v", a.req)
		}
		if (i+1)%serveOpen.sarEvery == 0 {
			// Every group of sarEvery consecutive requests holds one.
			if sar != (i+1)/serveOpen.sarEvery {
				t.Fatalf("%d SAR requests among the first %d, want 1 in %d", sar, i+1, serveOpen.sarEvery)
			}
		}
	}
	for _, a := range federateOpen.schedule(3, 20) {
		if !a.sar {
			t.Fatal("federate_open flies SAR missions only")
		}
	}
	for _, o := range []openLoop{serveOpen, federateOpen} {
		arrs := o.schedule(3, 20)
		slot := time.Duration(float64(time.Second) / o.rps)
		for i := 1; i < len(arrs); i++ {
			if gap := arrs[i].at - arrs[i-1].at; gap < slot/2 {
				t.Fatalf("arrivals %d and %d are %v apart, less than half a %v slot", i-1, i, gap, slot)
			}
		}
	}
	if n := len(federateOpen.schedule(3, 1)); n < minServed {
		t.Errorf("a 1 s run offers %d requests, want at least %d", n, minServed)
	}
}

func TestLeadsPicksFirstAdmitted(t *testing.T) {
	admit := func(id uint64, mission string) obs.SpanRecord {
		return obs.SpanRecord{ID: id, Name: "fleet.admit", Attrs: []obs.Attr{{Key: "mission", Kind: obs.KindStr, Str: mission}}}
	}
	spans := []obs.SpanRecord{admit(3, "m-2"), admit(2, "m-1")}
	if !leads(spans, "m-1") || leads(spans, "m-2") || leads(nil, "m-1") {
		t.Fatal("leads must pick the member admitted first")
	}
}
