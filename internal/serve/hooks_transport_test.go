package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// The tests below drive the real transports (httpPost against an
// httptest.Server, execRun through sh) that the runner tests replace with
// fakes.

// countingServer serves h and counts the TCP connections it accepts.
func countingServer(t *testing.T, h http.HandlerFunc) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var conns atomic.Int32
	hs := httptest.NewUnstartedServer(h)
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		hs.Close()
	})
	return hs, &conns
}

func TestHTTPPostReusesConnection(t *testing.T) {
	hs, conns := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"received"}`))
	})
	for i := 0; i < 2; i++ {
		if err := httpPost(context.Background(), hs.URL, []byte(`{}`)); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("two deliveries opened %d connections, want 1 (keep-alive reuse)", n)
	}
}

func TestHTTPPostErrorStatus(t *testing.T) {
	hs, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "receiver broke", http.StatusInternalServerError)
	})
	if err := httpPost(context.Background(), hs.URL, []byte(`{}`)); err == nil {
		t.Error("a 500 was delivered without error")
	}
}

func TestHTTPPostConnectionDropped(t *testing.T) {
	hs, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		c, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		c.Close()
	})
	if err := httpPost(context.Background(), hs.URL, []byte(`{}`)); err == nil {
		t.Error("a dropped connection was delivered without error")
	}
}

func TestHTTPPostDeadline(t *testing.T) {
	release := make(chan struct{})
	hs, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := httpPost(ctx, hs.URL, []byte(`{}`)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("slow receiver: err = %v, want the context deadline", err)
	}
}

func needSh(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("no sh on PATH")
	}
}

func TestExecRunStdin(t *testing.T) {
	needSh(t)
	out := filepath.Join(t.TempDir(), "alert.json")
	want := HookPayload{Tenant: "t1", Hook: "h", Comp: "fw1", Kind: "processing", Score: 0.9, Victims: 7}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := execRun(context.Background(), []string{"sh", "-c", `cat > "$0"`, out}, body); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got HookPayload
	if err := json.Unmarshal(b, &got); err != nil || got != want {
		t.Errorf("stdin carried %q (%v), want %+v", b, err, want)
	}
}

func TestExecRunExitStatus(t *testing.T) {
	needSh(t)
	if err := execRun(context.Background(), []string{"sh", "-c", "exit 3"}, nil); err == nil {
		t.Error("a non-zero exit was delivered without error")
	}
}

func TestExecRunCancelKills(t *testing.T) {
	needSh(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	err := execRun(ctx, []string{"sh", "-c", "exec sleep 30"}, nil)
	if err == nil {
		t.Error("a cancelled command reported success")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled command ran for %v: the child was not killed", d)
	}
}
