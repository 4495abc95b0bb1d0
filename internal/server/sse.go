package server

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"

	"grca/internal/engine"
	"grca/internal/obs"
)

var (
	mSSEClients     = obs.GetGauge("server.sse.clients")
	mSSEEvicted     = obs.GetCounter("server.sse.evicted")
	mSSESent        = obs.GetCounter("server.sse.sent")
	mStreamRendered = obs.GetCounter("server.stream.rendered")
)

// sseClientBuf bounds one subscriber's unread backlog. The publisher
// never blocks: a client that falls this far behind is evicted (its
// channel closed), because a diagnosis stream that backs up into the
// ingest path would turn one slow reader into service-wide
// backpressure. Evicted clients reconnect and catch up via ?after=.
const sseClientBuf = 64

// streamRingSize is how many of the newest streamed diagnoses the hub
// keeps for ?after=/?replay= catch-up and /v1/recent.
const streamRingSize = 256

// streamEntry is one streamed diagnosis. Seq increases by one per
// diagnosis and is the SSE event id.
type streamEntry struct {
	seq  int64
	app  string
	d    engine.Diagnosis
	once sync.Once
	// frame is the complete SSE frame; body, a subslice of it, is the
	// StreamDiagnosisJSON object. Both are set once, by render.
	frame, body []byte
}

// renderBufs recycles render's scratch: the frame is built in b, the
// object encoded from v, and only the finished frame is copied out.
var renderBufs = sync.Pool{New: func() any { return new(renderBuf) }}

type renderBuf struct {
	b bytes.Buffer
	v StreamDiagnosisJSON
}

// render returns the entry's SSE frame and its JSON object, rendering them
// the first time any reader asks — on that reader's goroutine, outside the
// hub lock — and never again.
func (e *streamEntry) render() (frame, body []byte) {
	e.once.Do(func() {
		r := renderBufs.Get().(*renderBuf)
		defer renderBufs.Put(r)
		r.v = StreamDiagnosisJSON{Seq: e.seq, DiagnosisJSON: diagnosisJSON(e.d)}
		r.v.App = e.app
		r.b.Reset()
		r.b.Write(strconv.AppendInt(append(r.b.AvailableBuffer(), "id: "...), e.seq, 10))
		r.b.WriteString("\nevent: diagnosis\ndata: ")
		n := r.b.Len()
		// Encode adds a newline, which the frame's blank line follows. It
		// cannot fail on the strings, ints and in-range times it is given.
		json.NewEncoder(&r.b).Encode(&r.v) //nolint:errcheck // see above
		r.b.WriteByte('\n')
		e.frame = bytes.Clone(r.b.Bytes())
		e.body = e.frame[n : len(e.frame)-2]
		e.d, r.v = engine.Diagnosis{}, StreamDiagnosisJSON{} // the bytes are all a reader needs
		mStreamRendered.Inc()
	})
	return e.frame, e.body
}

type sseClient struct {
	ch chan *streamEntry
}

// sseHub owns the diagnosis stream: it numbers each diagnosis, keeps the
// newest streamRingSize of them for catch-up and /v1/recent, and fans
// each out to the connected /v1/stream clients. publish runs on the
// observer goroutine and must stay non-blocking; it renders nothing.
type sseHub struct {
	mu      sync.Mutex
	clients map[*sseClient]struct{}
	// ring holds the entry of sequence number s at (s-1) % streamRingSize,
	// for every s in (seq-streamRingSize, seq].
	ring [streamRingSize]*streamEntry
	seq  int64 // the newest entry's; 0 before any
}

func newSSEHub() *sseHub {
	return &sseHub{clients: map[*sseClient]struct{}{}}
}

// sinceLocked returns up to limit ring entries with seq > after, oldest
// first; limit <= 0 means no limit.
func (h *sseHub) sinceLocked(after, limit int64) []*streamEntry {
	lo := max(after, h.seq-streamRingSize, 0) // the entries are lo+1..seq
	n := h.seq - lo
	if n <= 0 {
		return nil
	}
	if limit > 0 {
		n = min(n, limit)
	}
	out := make([]*streamEntry, n)
	for i := range out {
		out[i] = h.ring[(lo+int64(i))%streamRingSize]
	}
	return out
}

// since returns up to limit ring entries with seq > after, oldest first
// (limit <= 0: no limit), and the newest sequence number.
func (h *sseHub) since(after, limit int64) ([]*streamEntry, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sinceLocked(after, limit), h.seq
}

// subscribe registers a client and returns, from the same instant, the
// ring entries to send it first: with replay >= 0 the newest replay
// entries, else with after >= 0 every entry past after, else none.
// Everything newer arrives on the client's channel, so the two neither
// overlap nor leave a gap.
func (h *sseHub) subscribe(after, replay int64) (*sseClient, []*streamEntry) {
	c := &sseClient{ch: make(chan *streamEntry, sseClientBuf)}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clients[c] = struct{}{}
	mSSEClients.Set(int64(len(h.clients)))
	switch {
	case replay >= 0:
		after = max(h.seq-replay, 0)
	case after < 0:
		after = h.seq
	}
	return c, h.sinceLocked(after, 0)
}

// unsubscribe detaches a client; safe to call after an eviction already
// removed it.
func (h *sseHub) unsubscribe(c *sseClient) {
	h.mu.Lock()
	if _, ok := h.clients[c]; ok {
		delete(h.clients, c)
		close(c.ch)
	}
	mSSEClients.Set(int64(len(h.clients)))
	h.mu.Unlock()
}

// publish numbers one diagnosis, puts it in the ring, delivers it to
// every subscriber without blocking and returns its entry: a client with
// a full buffer is evicted and its channel closed, which its handler
// observes as end-of-stream.
func (h *sseHub) publish(app string, d engine.Diagnosis) *streamEntry {
	h.mu.Lock()
	h.seq++
	e := &streamEntry{seq: h.seq, app: app, d: d}
	h.ring[(h.seq-1)%streamRingSize] = e
	for c := range h.clients {
		select {
		case c.ch <- e:
			mSSESent.Inc()
		default:
			delete(h.clients, c)
			close(c.ch)
			mSSEEvicted.Inc()
		}
	}
	mSSEClients.Set(int64(len(h.clients)))
	h.mu.Unlock()
	return e
}
