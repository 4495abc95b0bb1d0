package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grca/internal/wal"
)

// sseFrame is one frame a /v1/stream client read: its id and its data.
type sseFrame struct {
	seq  int64
	data string
}

// readStream subscribes to base's /v1/stream and hands out each frame it
// reads until ctx ends; it returns once the subscription is in place.
func readStream(t *testing.T, ctx context.Context, base string, hub *sseHub) <-chan sseFrame {
	t.Helper()
	before := subscribers(hub)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	frames := make(chan sseFrame, 64)
	go func() {
		defer resp.Body.Close()
		defer close(frames)
		var f sseFrame
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				f.seq, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
				frames <- f
			}
		}
	}()
	for i := 0; subscribers(hub) == before && i < 500; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if subscribers(hub) == before {
		t.Fatal("stream client never subscribed")
	}
	return frames
}

// shifted returns the batches with every event moved later by d.
func shifted(batches [][]EventJSON, d time.Duration) [][]EventJSON {
	out := make([][]EventJSON, len(batches))
	for i, evs := range batches {
		out[i] = make([]EventJSON, len(evs))
		for j, ev := range evs {
			ev.Start, ev.End = ev.Start.Add(d), ev.End.Add(d)
			out[i][j] = ev
		}
	}
	return out
}

// TestPromoteKeepsStream: a promoted replica is the same node, serving
// the same diagnosis stream. A /v1/stream client that connected to the
// replica before the promotion receives every diagnosis streamed after
// it, numbered on from the follower's last; /v1/recent past that number
// returns exactly what the promoted node streamed; and the store the
// node serves is the one it served as a follower.
func TestPromoteKeepsStream(t *testing.T) {
	_, b := testBundle(t)
	prim := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	loadAndFinalize(t, ts, b)
	foll, err := Open(Config{DataDir: t.TempDir(), Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(foll.Handler())
	defer ts2.Close()
	defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	frames := readStream(t, ctx, ts2.URL, foll.hub)

	for i, evs := range lifecycleBatches(b) {
		if code, body := postLifecycleBatch(t, ts, i, evs); code != http.StatusOK {
			t.Fatalf("event batch %d: %d %s", i, code, body)
		}
	}
	waitReplicaCaughtUp(t, foll, prim)
	_, last := foll.hub.since(0, 0)
	if last == 0 {
		t.Fatal("the follower streamed no diagnosis: the case is not tested")
	}
	st := foll.Store()
	if _, err := foll.Promote(); err != nil {
		t.Fatal(err)
	}
	if foll.Store() != st {
		t.Fatal("the promoted node serves another store than the follower did")
	}

	streamed := 0
	for i, evs := range shifted(lifecycleBatches(b), 200*time.Hour) {
		code, body := postLifecycleBatch(t, ts2, i, evs)
		if code != http.StatusOK {
			t.Fatalf("post-promote batch %d: %d %s", i, code, body)
		}
		var ack IngestResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		streamed += len(ack.Diagnoses)
	}
	if streamed == 0 {
		t.Fatal("the promoted node streamed no diagnosis: the case is not tested")
	}

	got := map[int64]string{}
	for want := last + int64(streamed); len(got) < int(want); {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("the stream ended after %d of %d frames", len(got), want)
			}
			got[f.seq] = f.data
		case <-ctx.Done():
			t.Fatalf("the subscriber received %d frames, want %d: %d before the promotion, %d after", len(got), want, last, streamed)
		}
	}
	for seq := int64(1); seq <= last+int64(streamed); seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("the subscriber missed seq %d of 1..%d", seq, last+int64(streamed))
		}
	}

	code, body := get(t, ts2, fmt.Sprintf("/v1/recent?after=%d&limit=%d", last, streamRingSize))
	if code != http.StatusOK {
		t.Fatalf("recent: %d %s", code, body)
	}
	var recent struct {
		Diagnoses []json.RawMessage `json:"diagnoses"`
		LastSeq   int64             `json:"last_seq"`
	}
	if err := json.Unmarshal(body, &recent); err != nil {
		t.Fatal(err)
	}
	if len(recent.Diagnoses) != streamed || recent.LastSeq != last+int64(streamed) {
		t.Fatalf("recent after %d: %d entries, last seq %d; want the %d streamed after the promotion, through %d",
			last, len(recent.Diagnoses), recent.LastSeq, streamed, last+int64(streamed))
	}
	for i, d := range recent.Diagnoses {
		if seq := last + 1 + int64(i); string(d) != got[seq] {
			t.Fatalf("recent entry %d is %s, the stream's seq %d %s", i, d, seq, got[seq])
		}
	}
}

// TestPromoteRacesShutdown: a Promote and a Shutdown of the same replica,
// run at once, end in a refused promotion or in a primary that shuts down
// cleanly — never in a half of each — and leave no pipeline goroutine
// running.
func TestPromoteRacesShutdown(t *testing.T) {
	const rounds = 16
	_, b := testBundle(t)
	prim := openServer(t, t.TempDir(), b)
	ts := httptest.NewServer(prim.Handler())
	defer ts.Close()
	defer prim.Shutdown(context.Background()) //nolint:errcheck // test teardown
	loadAndFinalize(t, ts, b)
	if code, body := postLifecycleBatch(t, ts, 0, lifecycleBatches(b)[0]); code != http.StatusOK {
		t.Fatalf("event batch: %d %s", code, body)
	}
	promoted := 0
	var took time.Duration // an unraced promotion's, round 0's
	for round := 0; round < rounds; round++ {
		foll, err := Open(Config{DataDir: t.TempDir(), Bundle: b, ReplicaOf: ts.URL})
		if err != nil {
			t.Fatal(err)
		}
		waitReplicaCaughtUp(t, foll, prim)
		var perr, serr error
		var wg sync.WaitGroup
		start, promoted0 := make(chan struct{}), make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(promoted0)
			<-start
			began := time.Now()
			_, perr = foll.Promote()
			if round == 0 {
				took = time.Since(began)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			// Later each round, so that the Shutdown lands before, inside
			// and after the promotion.
			if round == 0 {
				<-promoted0
			}
			time.Sleep(took * time.Duration(round-1) / (2 * rounds))
			serr = foll.Shutdown(context.Background())
		}()
		close(start)
		wg.Wait()
		if serr != nil {
			t.Fatalf("round %d: shutdown: %v (promote: %v)", round, serr, perr)
		}
		if perr == nil {
			promoted++
			if foll.isFollower() {
				t.Fatalf("round %d: the promotion succeeded and the node is still a follower", round)
			}
			select {
			case <-foll.observed:
			default:
				t.Fatalf("round %d: the promoted primary shut down with its observer running", round)
			}
		} else if !foll.isFollower() {
			t.Fatalf("round %d: the promotion was refused (%v) and the node is no follower", round, perr)
		}
	}
	t.Logf("%d of %d promotions went through, the rest were refused", promoted, rounds)
	// The primary's own applier and observer are the only ones left.
	for i := 0; ; i++ {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		a, o := strings.Count(stacks, "server.(*Server).applier("), strings.Count(stacks, "server.(*Server).observer(")
		if a == 1 && o == 1 {
			break
		}
		if i == 100 {
			t.Fatalf("%d appliers and %d observers running, want the primary's one of each", a, o)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// silentFollower opens a primary whose journal stream can be held before
// its headers and a follower caught up to it, then cuts the follower's
// stream and waits for the reconnect, which the primary holds: the
// follower is connecting to a primary that never answers. release lets the
// held stream go on.
func silentFollower(t *testing.T) (foll *Server, release func()) {
	t.Helper()
	_, b := testBundle(t)
	prim := openServer(t, t.TempDir(), b)
	g := newGate()
	var streams atomic.Int64
	h := prim.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replication/journal" {
			streams.Add(1)
			w = gatedWriter{w, g}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { prim.Shutdown(context.Background()) }) //nolint:errcheck // test teardown
	t.Cleanup(func() { g.set(false) })                        // runs first: a held stream must end before the primary's Shutdown waits on it
	loadAndFinalize(t, ts, b)
	if code, body := postLifecycleBatch(t, ts, 0, lifecycleBatches(b)[0]); code != http.StatusOK {
		t.Fatalf("event batch: %d %s", code, body)
	}
	foll, err := Open(Config{DataDir: t.TempDir(), Bundle: b, ReplicaOf: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	waitReplicaCaughtUp(t, foll, prim)
	g.set(true)
	n := streams.Load()
	ts.CloseClientConnections()
	deadline := time.Now().Add(10 * time.Second)
	for streams.Load() == n {
		if time.Now().After(deadline) {
			t.Fatal("the follower did not reconnect after its stream was cut")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return foll, func() { g.set(false) }
}

// TestPromoteSilentPrimary: promotion is for a primary that stopped
// answering. A follower whose primary holds its stream request without a
// header is promoted at once, and leads with the store it held.
func TestPromoteSilentPrimary(t *testing.T) {
	foll, release := silentFollower(t)
	defer foll.Shutdown(context.Background()) //nolint:errcheck // test teardown
	want := wal.StoreDigest(foll.st)
	var info PromoteInfo
	var err error
	done := make(chan struct{})
	go func() { info, err = foll.Promote(); close(done) }()
	defer func() { release(); <-done }() // runs first: a stuck seal waits on the held stream
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Promote still blocked 5 s on a primary that holds the stream request")
	}
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "primary" || info.Digest != want {
		t.Fatalf("promoted as %q with digest %s, want a primary with the follower's %s", info.Role, info.Digest, want)
	}
}

// TestShutdownSilentPrimary: a follower whose primary holds its stream
// request without a header shuts down at once.
func TestShutdownSilentPrimary(t *testing.T) {
	foll, release := silentFollower(t)
	var err error
	done := make(chan struct{})
	go func() { err = foll.Shutdown(context.Background()); close(done) }()
	defer func() { release(); <-done }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown still blocked 5 s on a primary that holds the stream request")
	}
	if err != nil {
		t.Fatal(err)
	}
}
