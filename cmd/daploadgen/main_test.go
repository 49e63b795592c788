package main

import (
	"bytes"
	"math"
	"testing"
)

// TestRunServesSaneEstimates drives an in-process collector over each
// ingest wire, and once with the epoch-adaptive red-team spec, checking
// what the collector serves back. run itself fails on any
// traffic-independent check (weights, mean range, a sealed cached epoch)
// and on the -scrape-metrics cross-check; the acked count and the
// accuracy bound depend on the traffic, so they are checked here: the
// mean within 0.35 of the honest mean without an attack, 0.5 under one.
func TestRunServesSaneEstimates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		bound float64
	}{
		{"json", []string{"-wire", "json"}, 0.35},
		{"bin", []string{"-wire", "bin"}, 0.35},
		{"udp", []string{"-wire", "udp"}, 0.35},
		{"adaptive-attack", []string{"-spec", "../../specs/attack-adaptive-stream.json",
			"-gamma", "0.2", "-attack-epochs", "6"}, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "", "-reports", "10000", "-epoch", "150ms", "-scrape-metrics"}, tc.args...)
			var out bytes.Buffer
			res, err := run(args, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			// Every wire here is loopback, so nearly all of the ~10 000
			// reports land (UDP may drop a few): a sender that skips
			// batches fails here even though the counters still agree.
			if res.Acked < 9000 {
				t.Errorf("acked %d reports, want ≥ 9000\n%s", res.Acked, out.String())
			}
			if d := math.Abs(res.Live.Mean - res.HonestMean); d > tc.bound {
				t.Errorf("live mean %v is %v from the honest mean %v, want ≤ %v\n%s",
					res.Live.Mean, d, res.HonestMean, tc.bound, out.String())
			}
		})
	}
}
