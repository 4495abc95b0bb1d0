package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/server"
	"grca/internal/simnet"
	"grca/internal/wire"
)

// TestServeFlagsMatchREADME holds README's "Serve flags" table to the
// flags serve registers, both ways, so a removed knob cannot linger in
// the docs and a new one cannot ship undocumented.
func TestServeFlagsMatchREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Serve flags\n")
	if !ok {
		t.Fatal("README has no \"### Serve flags\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	serveFlags(new(serveOptions)).VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("serve registers -%s but README's flag table does not name it", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README's flag table names -%s but serve does not register it", name)
	}
}

// TestMain lets TestServeSIGTERMDrain re-execute this test binary as the
// CLI: `<binary> serve ...` runs main instead of the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		main()
		return
	}
	os.Exit(m.Run())
}

// startServe runs `grca serve` as a child process, its stderr going to
// logPath (truncated), and returns once it has logged its bound address.
func startServe(t *testing.T, dataDir, bundleDir, logPath string) (*exec.Cmd, string) {
	t.Helper()
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	cmd := exec.Command(os.Args[0], "serve", "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-bundle", bundleDir)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // already exited on the passing path
	listening := regexp.MustCompile(`serve: listening on (\S+)`)
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		log, _ := os.ReadFile(logPath)
		if m := listening.FindSubmatch(log); m != nil {
			return cmd, "http://" + string(m[1])
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never listened:\n%s", log)
		}
	}
}

// do sends one request and returns the body of its 200 response.
func do(t *testing.T, method, url, contentType string, body []byte) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d, err %v: %s", method, url, resp.StatusCode, err, data)
	}
	return data
}

// TestServeSIGTERMDrain drives runServe's signal path in a real process:
// SIGTERM drains and exits 0, and a restart on the same directory
// recovers the same events and answers byte-identically, without a WAL
// rebuild (a clean shutdown leaves journal and WAL in agreement).
func TestServeSIGTERMDrain(t *testing.T) {
	bundleDir := writeBundle(t, simnet.Config{
		Seed: 61, PoPs: 2, PERsPerPoP: 1, SessionsPerPER: 6,
		Duration: 2 * 24 * time.Hour, BGPFlapIncidents: 40,
	})
	b, err := platform.Load(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	dataDir, logPath := t.TempDir(), filepath.Join(t.TempDir(), "serve.log")
	cmd, base := startServe(t, dataDir, bundleDir, logPath)

	postJSON := func(path string, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		do(t, http.MethodPost, base+path, "application/json", body)
	}
	// Any fixed feed order will do: what is asserted is before = after.
	sources := make([]string, 0, len(b.Feeds))
	for src := range b.Feeds {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	for _, src := range sources {
		postJSON("/v1/ingest", server.IngestRequest{Source: src, Lines: b.Feeds[src]})
	}
	postJSON("/v1/finalize", struct{}{})
	// One event batch per ingest encoding, after the corpus window.
	at := b.Start.Add(b.Duration)
	postJSON("/v1/ingest", server.IngestRequest{Events: []server.EventJSON{{
		Name: event.InterfaceUp, Start: at, End: at, Loc: server.LocationJSON{Type: "interface", A: "json-r0"},
	}}})
	do(t, http.MethodPost, base+"/v1/ingest", wire.ContentType, wire.AppendEvents(nil, []event.Instance{{
		Name: event.InterfaceUp, Start: at.Add(time.Second), End: at.Add(time.Second), Loc: locus.At(locus.Interface, "wire-r0"),
	}}))

	observe := func() [3][]byte {
		return [3][]byte{
			do(t, http.MethodGet, base+"/v1/events", "", nil),
			do(t, http.MethodPost, base+"/v1/diagnose", "application/json", []byte(`{"app":"bgpflap","all":true}`)),
			do(t, http.MethodGet, base+"/v1/breakdown?app=bgpflap", "", nil),
		}
	}
	before := observe()
	var ev struct{ Events int }
	var diag server.DiagnoseResponse
	if err := errors.Join(json.Unmarshal(before[0], &ev), json.Unmarshal(before[1], &diag)); err != nil {
		t.Fatal(err)
	}
	if ev.Events == 0 || len(diag.Diagnoses) == 0 {
		t.Fatalf("nothing to compare across the restart: %d events, %d diagnoses", ev.Events, len(diag.Diagnoses))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	if log, _ := os.ReadFile(logPath); err != nil || !bytes.Contains(log, []byte("serve: stopped cleanly")) {
		t.Fatalf("serve after SIGTERM: %v, log:\n%s", err, log)
	}

	_, base = startServe(t, dataDir, bundleDir, logPath)
	log, _ := os.ReadFile(logPath)
	want := fmt.Sprintf(", %d events (phase serving)", ev.Events)
	// A clean shutdown rolled and checkpointed: the restart applies no
	// journal record, it verifies them.
	if !bytes.Contains(log, []byte(want)) || !bytes.Contains(log, []byte("(0 records applied")) {
		t.Fatalf("restart log lacks %q or applied journal records over the shutdown's checkpoint:\n%s", want, log)
	}
	for i, after := range observe() {
		if !bytes.Equal(before[i], after) {
			t.Errorf("response %d (events, diagnose, breakdown) changed across the restart:\n%s\n---\n%s", i, before[i], after)
		}
	}
}

// TestPromoteOutput holds grca promote to the two lines it prints — the
// second is what `go run ./bench -workload replicated` parses for the
// promoted digest — from a canned PromoteInfo, and a non-200 answer to an
// error that carries the body.
func TestPromoteOutput(t *testing.T) {
	info := server.PromoteInfo{Role: "primary", BootID: "b00t", AppliedSeq: 42, Digest: "d1ge57"}
	var refuse atomic.Bool
	calls := make(chan string, 2) // a send for each of the two requests that reach it
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls <- r.Method + " " + r.URL.Path
		if refuse.Load() {
			http.Error(w, `{"error":"not a replica"}`, http.StatusConflict)
			return
		}
		json.NewEncoder(w).Encode(info) //nolint:errcheck // test server
	}))
	defer ts.Close()
	out := capture(t, func() error { return runPromote([]string{"-addr", ts.URL + "/"}) })
	if want := "promoted: role=primary boot=b00t applied_seq=42\nshard 0 digest d1ge57\n"; out != want {
		t.Fatalf("promote printed %q, want %q", out, want)
	}
	if call := <-calls; call != "POST /v1/replication/promote" {
		t.Fatalf("promote sent %s, want POST /v1/replication/promote", call)
	}
	refuse.Store(true)
	err := runPromote([]string{"-addr", ts.URL})
	if err == nil || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("a 409 answer: err %v, want an error naming the status and the body", err)
	}
	if err := runPromote(nil); err == nil {
		t.Error("promote without -addr accepted")
	}
}
