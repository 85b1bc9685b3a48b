package apps

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// The engine's event and switch counts over a small web request path
// are exact, so they pin every event the run schedules: a change to the
// engine or to a transport's hot path that adds, drops or reorders an
// event moves them even when no printed figure moves. The shape is the
// benchmark's web workload, scaled down: 4 clients × 50 HTTP/1.0
// requests, 4 workers on 4 cores, 50 µs of service time.
func TestWebEngineCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		tr               cluster.Transport
		events, switches int64
	}{
		{cluster.TransportTCP, 11424, 4820},
		{cluster.TransportSubstrate, 154343, 73182},
	} {
		cfg := WebConfig{
			ResponseBytes:     1024,
			RequestsPerConn:   1,
			Clients:           4,
			RequestsPerClient: 50,
			Port:              80,
			Workers:           4,
			ServiceTime:       50 * sim.Microsecond,
		}
		c := cluster.New(cluster.Config{Nodes: cfg.Clients + 1, Transport: tc.tr, Cores: 4, Seed: 1})
		res := RunWeb(c, cfg)
		if res.Err != nil || res.Requests != 200 {
			t.Fatalf("%v: %d of 200 requests, err %v", tc.tr, res.Requests, res.Err)
		}
		if ev, sw := c.Eng.Events(), c.Eng.Switches(); ev != tc.events || sw != tc.switches {
			t.Errorf("%v: %d events and %d switches, want %d and %d", tc.tr, ev, sw, tc.events, tc.switches)
		}
	}
}
