package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestStatusServer exercises the three endpoints end to end over a real
// listener, the way a `curl :addr/metrics` against a live scan does.
func TestStatusServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bulk_pairs_total").Add(7)
	reg.Histogram("bulk_block_seconds", DurationBuckets()).Observe(0.001)

	s, err := ServeStatus("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body, _ := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var health struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if health.Status != "ok" || health.Uptime < 0 {
		t.Errorf("healthz = %+v", health)
	}

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, needle := range []string{
		"# TYPE bulk_pairs_total counter",
		"bulk_pairs_total 7",
		"bulk_block_seconds_bucket{le=\"+Inf\"} 1",
		"bulk_block_seconds_count 1",
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("metrics missing %q:\n%s", needle, body)
		}
	}

	// Metric updates made while the server runs are visible on the next
	// scrape — the live-scan property.
	reg.Counter("bulk_pairs_total").Add(5)
	_, body, _ = get(t, base+"/metrics")
	if !strings.Contains(body, "bulk_pairs_total 12") {
		t.Errorf("live update not visible:\n%s", body)
	}

	for _, path := range []string{"/metrics?format=json", "/debug/vars"} {
		code, body, hdr = get(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("%s = %d", path, code)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s content type = %q", path, ct)
		}
		var snap Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
		if snap.Counters["bulk_pairs_total"] != 12 {
			t.Errorf("%s counter = %d", path, snap.Counters["bulk_pairs_total"])
		}
	}

	code, body, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline = %d %q", code, body)
	}
}

// TestStatusServerReadyz: ServeStatus starts ready (back-compat); a
// server built with explicit options starts not-ready until flipped,
// and goes not-ready again the instant Shutdown begins.
func TestStatusServerReadyz(t *testing.T) {
	s, err := ServeStatus("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, _, _ := get(t, "http://"+s.Addr()+"/readyz"); code != http.StatusOK {
		t.Fatalf("default server /readyz = %d", code)
	}

	mounted := false
	opts := StatusOptions{
		Registry: NewRegistry(),
		Handlers: map[string]http.Handler{
			"/custom": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				mounted = true
				w.WriteHeader(http.StatusNoContent)
			}),
		},
	}
	c, err := ServeStatusOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := "http://" + c.Addr()
	if code, body, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady = %d %q", code, body)
	}
	if code, _, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatal("not-ready must still be live")
	}
	c.SetReady(true)
	if code, _, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatal("/readyz after SetReady not 200")
	}
	if code, _, _ := get(t, base+"/custom"); code != http.StatusNoContent || !mounted {
		t.Fatal("custom handler not mounted")
	}
}

// TestStatusServerSnapshotOverride: the Snapshot option replaces the
// registry as the scrape source — the coordinator's merged fleet view.
func TestStatusServerSnapshotOverride(t *testing.T) {
	own := NewRegistry()
	own.Counter("fleet_cells_completed_total").Add(3)
	worker := NewRegistry()
	worker.Counter("bulk_pairs_total").Add(9)
	s, err := ServeStatusOptions("127.0.0.1:0", StatusOptions{
		Registry: own,
		Ready:    true,
		Snapshot: func() *Snapshot {
			snap := own.Snapshot()
			_ = snap.Merge(worker.Snapshot())
			return snap
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, body, _ := get(t, "http://"+s.Addr()+"/metrics")
	for _, needle := range []string{"fleet_cells_completed_total 3", "bulk_pairs_total 9"} {
		if !strings.Contains(body, needle) {
			t.Errorf("merged metrics missing %q:\n%s", needle, body)
		}
	}
}

// TestStatusServerShutdownDrains: a request in flight when Shutdown is
// called completes instead of being dropped, and the listener refuses
// new connections afterwards.
func TestStatusServerShutdownDrains(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	s, err := ServeStatusOptions("127.0.0.1:0", StatusOptions{
		Ready: true,
		Handlers: map[string]http.Handler{
			"/slow": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				close(entered)
				<-release
				w.Write([]byte("drained"))
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	type result struct {
		code int
		body string
	}
	got := make(chan result, 1)
	go func() {
		code, body, _ := get(t, base+"/slow")
		got <- result{code, body}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	// Shutdown is in progress: the in-flight handler still holds it open.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before drain: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.code != http.StatusOK || r.body != "drained" {
		t.Fatalf("in-flight request dropped: %d %q", r.code, r.body)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestStatusServerTimeouts pins the server's connection bounds: request
// headers and idle keep-alive connections are bounded, while writes are
// not, so long-polls and pprof profiles can run as long as they need.
func TestStatusServerTimeouts(t *testing.T) {
	s, err := ServeStatus("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.srv.ReadHeaderTimeout != readHeaderTimeout || s.srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", s.srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.srv.IdleTimeout != idleTimeout || s.srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", s.srv.IdleTimeout, idleTimeout)
	}
	if s.srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none (it would cut long-polls and profiles)", s.srv.WriteTimeout)
	}
}
