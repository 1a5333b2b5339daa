package server_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"eleos/internal/addr"
	"eleos/internal/client"
	"eleos/internal/core"
	"eleos/internal/server"
	"eleos/internal/trace"
)

// TestTraceDumpLoopback is the acceptance test for the tracing wire
// path: batches flushed over loopback TCP with client-chosen trace IDs
// come back out of trace_dump with every write-path stage attributed to
// the right ID, and the dump renders to loadable Chrome trace JSON.
func TestTraceDumpLoopback(t *testing.T) {
	_, _, _, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(7))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sess, err := cl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1001, 1002, 1003}
	for i, id := range ids {
		batch := []core.LPage{
			{LPID: addr.LPID(uint64(i) + 1), Data: pageData(i, 1800)},
			{LPID: addr.LPID(uint64(i) + 50), Data: pageData(i, 600)},
		}
		if err := sess.FlushTraced(id, batch); err != nil {
			t.Fatal(err)
		}
	}
	// One untraced flush: the server must assign it a fresh nonzero ID.
	if err := sess.Flush([]core.LPage{{LPID: 99, Data: pageData(9, 500)}}); err != nil {
		t.Fatal(err)
	}

	d, err := cl.TraceDump()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) == 0 {
		t.Fatal("trace dump came back empty")
	}
	if d.EpochUnixNano == 0 {
		t.Fatal("dump epoch missing")
	}

	// Every client-chosen ID must carry the full write-path span set.
	stages := []trace.Kind{
		trace.KBatchStart, trace.KClaim, trace.KInit, trace.KProgramWait,
		trace.KForceWait, trace.KInstall, trace.KBatchEnd,
	}
	byID := map[uint64]map[trace.Kind]int{}
	for _, ev := range d.Events {
		if ev.TraceID == 0 {
			continue
		}
		if byID[ev.TraceID] == nil {
			byID[ev.TraceID] = map[trace.Kind]int{}
		}
		byID[ev.TraceID][ev.Kind]++
	}
	for i, id := range ids {
		kinds := byID[id]
		if kinds == nil {
			t.Fatalf("trace ID %d absent from dump", id)
		}
		for _, k := range stages {
			if kinds[k] == 0 {
				t.Errorf("trace ID %d missing stage %v", id, k)
			}
		}
		for _, ev := range d.Events {
			if ev.TraceID == id && ev.Kind == trace.KBatchStart {
				if ev.SID != sess.SID() || ev.WSN != uint64(i+1) {
					t.Errorf("trace %d batch_start identity (sid %d, wsn %d), want (%d, %d)",
						id, ev.SID, ev.WSN, sess.SID(), i+1)
				}
			}
		}
	}
	// The untraced flush got a server-assigned ID: some traced batch at
	// WSN 4 beyond the three client IDs.
	var autoID uint64
	for _, ev := range d.Events {
		if ev.Kind == trace.KBatchStart && ev.WSN == 4 {
			autoID = ev.TraceID
		}
	}
	if autoID == 0 {
		t.Error("plain flush did not get a server-assigned trace ID")
	}
	for _, id := range ids {
		if autoID == id {
			t.Errorf("server-assigned ID %d collides with a client ID", autoID)
		}
	}
	// The connection and request roots made it in too.
	kindSeen := map[trace.Kind]bool{}
	for _, ev := range d.Events {
		kindSeen[ev.Kind] = true
	}
	for _, k := range []trace.Kind{trace.KConnOpen, trace.KRequest, trace.KWalForce, trace.KFlashProgram} {
		if !kindSeen[k] {
			t.Errorf("dump missing kind %v", k)
		}
	}

	// The same dump renders to Chrome trace JSON naming every stage.
	var buf bytes.Buffer
	if err := trace.ChromeJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome JSON invalid: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"batch_start", "claim", "init", "program_wait", "force_wait", "install", "batch_end"} {
		if !names[want] {
			t.Errorf("chrome JSON missing event %q", want)
		}
	}
}

// TestDebugHandler exercises the HTTP debug endpoint eleosd mounts on
// -debug-addr: /metrics plain text, /debug/trace Chrome JSON, pprof
// index, and the root directory page.
func TestDebugHandler(t *testing.T) {
	ctl, _, srv, addrStr, _ := startServer(t, server.Config{})
	cl, err := client.Dial(addrStr, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Flush(0, 0, []core.LPage{{LPID: 5, Data: pageData(1, 900)}}); err != nil {
		t.Fatal(err)
	}
	_ = ctl

	h := srv.DebugHandler()
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec
	}

	metricsRec := get("/metrics")
	if ct := metricsRec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	metricsOut := metricsRec.Body.String()
	for _, want := range []string{
		"# TYPE eleos_server_batches_total counter",
		"eleos_server_batches_total 1",
		"eleos_core_write_batches_total 1",
		"# TYPE eleos_core_write_init_ns histogram",
		"eleos_core_write_init_ns_count 1",
		`eleos_flash_src_bytes_total{source="user"}`,
	} {
		if !strings.Contains(metricsOut, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsOut)
		}
	}
	if strings.Contains(metricsOut, "core.write") {
		t.Error("/metrics leaked dotted metric names")
	}

	traceRec := get("/debug/trace")
	if ct := traceRec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/trace content-type = %q", ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceRec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/trace invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/debug/trace has no events after a flush")
	}

	if body := get("/debug/pprof/").Body.String(); !strings.Contains(body, "goroutine") {
		t.Error("pprof index missing goroutine profile")
	}
	if body := get("/").Body.String(); !strings.Contains(body, "/debug/trace") {
		t.Error("root page does not list /debug/trace")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Errorf("GET /nope: status %d, want 404", rec.Code)
	}
}
