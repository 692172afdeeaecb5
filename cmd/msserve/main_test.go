package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"microscope/internal/collector"
	"microscope/internal/nfsim"
	"microscope/internal/packet"
	"microscope/internal/simtime"
	"microscope/internal/spec"
	"microscope/internal/traffic"
)

// smokeTrace simulates a short faulty run and returns the trace.
func smokeTrace(t *testing.T) *collector.Trace {
	t.Helper()
	col := collector.New(collector.Config{})
	sim := nfsim.BuildChain(col, 11,
		nfsim.ChainSpec{Name: "nat1", Kind: "nat", Rate: simtime.MPPS(1)},
		nfsim.ChainSpec{Name: "fw1", Kind: "fw", Rate: simtime.MPPS(0.8)},
	)
	iv := simtime.MPPS(0.4).Interval()
	var ems []traffic.Emission
	i := 0
	for tt := simtime.Time(0); tt < simtime.Time(300*simtime.Millisecond); tt = tt.Add(iv) {
		ems = append(ems, traffic.Emission{
			At: tt,
			Flow: packet.FiveTuple{
				SrcIP:   packet.IPFromOctets(10, 0, 0, byte(i%50)),
				DstIP:   packet.IPFromOctets(23, 0, 0, 1),
				SrcPort: uint16(1024 + i%50), DstPort: 80, Proto: packet.ProtoTCP,
			},
			Size: 64, Burst: -1,
		})
		i++
	}
	sim.LoadSchedule(&traffic.Schedule{Emissions: ems})
	sim.InjectInterrupt("fw1", simtime.Time(100*simtime.Millisecond), 900*simtime.Microsecond, "smoke")
	sim.Run(simtime.Time(400 * simtime.Millisecond))
	return col.Trace(collector.MetaOf(sim))
}

// TestServeSmoke boots the daemon with a boot-tenant spec file, drives
// the HTTP API end to end (ingest, flush, report), then shuts it down
// via context cancellation and checks the graceful-drain output.
func TestServeSmoke(t *testing.T) {
	tr := smokeTrace(t)
	sp := &spec.PipelineSpec{
		Version:  spec.Version,
		Tenant:   "smoke",
		Topology: spec.FromMeta(tr.Meta),
	}
	doc, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(t.TempDir(), "tenant.json")
	if err := os.WriteFile(specPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-listen", "127.0.0.1:0", "-spec", specPath}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	// The boot tenant exists.
	resp, err := http.Get(base + "/tenants/smoke")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("boot tenant status: %s", resp.Status)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// Ingest the trace, retrying on backpressure like a real client.
	const chunk = 20000
	for i := 0; i < len(tr.Records); i += chunk {
		end := i + chunk
		if end > len(tr.Records) {
			end = len(tr.Records)
		}
		body, err := json.Marshal(tr.Records[i:end])
		if err != nil {
			t.Fatal(err)
		}
		for {
			resp, err := http.Post(base+"/tenants/smoke/records", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			code := resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code == http.StatusTooManyRequests {
				time.Sleep(time.Millisecond)
				continue
			}
			if code != http.StatusAccepted {
				t.Fatalf("ingest: status %d", code)
			}
			break
		}
	}
	resp, err = http.Post(base+"/tenants/smoke/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/tenants/smoke/report")
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(rb, []byte("fingerprint")) {
		t.Fatalf("report: %d %s", resp.StatusCode, rb)
	}

	// Graceful shutdown: tenants drain, stats print, daemon exits clean.
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after cancel")
	}
	for _, want := range []string{"tenant smoke created", "draining tenants", "tenant smoke: windows=", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("daemon output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(out.String(), fmt.Sprintf("serving tenant API on %s", addr)) {
		t.Fatalf("daemon output missing listen line:\n%s", out.String())
	}
}
