package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"grca/internal/obs"
	"grca/internal/wal"
)

var (
	mReconnects = obs.GetCounter("replica.client.reconnects")
	mStreamErrs = obs.GetCounter("replica.client.stream.errors")
)

// ErrFatal wraps a handler error that must stop the stream for good —
// boot-ID mismatch, protocol violation, local apply failure — instead
// of reconnecting into the same wall.
var ErrFatal = errors.New("replica: fatal stream error")

// Fatal marks err as non-retryable for the Client loop.
func Fatal(err error) error { return fmt.Errorf("%w: %w", ErrFatal, err) }

// The reconnect delay starts at minBackoff and doubles to maxBackoff; a
// connection that delivered messages resets the ladder.
const (
	minBackoff = 100 * time.Millisecond
	maxBackoff = 5 * time.Second
)

// Client maintains one replication stream: connect, decode frames,
// hand each message to Handle, and reconnect with exponential backoff
// when the stream drops. A clean MsgEOF (primary shutdown, deliberate
// seal) also reconnects — the primary may come back — unless Handle
// returned a Fatal error first.
type Client struct {
	// URL builds the stream request URL for a given resume point.
	URL func(from int) string
	// From returns the resume point at each (re)connect — the follower's
	// local frontier, so re-shipped records after a crash are minimal.
	From func() int
	// Handle applies one message. Wrap the return in Fatal to stop the
	// loop permanently; any other error reconnects.
	Handle func(Msg) error
	// OnState, when set, observes health transitions: nil after a
	// successful connect, the error after a failure. Called from the
	// client goroutine.
	OnState func(err error)

	// ctx lives from Start to Stop: the stream request, the reads of its
	// body and the backoff sleep all end on it.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Start launches the stream loop. Stop (or a Fatal handler error) ends
// it; Wait blocks until it is down.
func (c *Client) Start() {
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.done = make(chan struct{})
	go c.run() // lifecycle: Stop cancels c.ctx, Wait joins c.done
}

// Stop ends the loop wherever it is: in the stream request, however long
// the primary holds it, in a read of the stream, or in the backoff sleep.
func (c *Client) Stop() { c.cancel() }

// Wait blocks until the loop has exited.
func (c *Client) Wait() { <-c.done }

func (c *Client) run() {
	defer close(c.done)
	backoff := minBackoff
	for {
		delivered, err := c.once()
		if err != nil {
			mStreamErrs.Inc()
			if c.OnState != nil {
				c.OnState(err)
			}
			if errors.Is(err, ErrFatal) {
				return
			}
		}
		if delivered {
			backoff = minBackoff
		} else if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		select {
		case <-c.ctx.Done():
			return
		case <-time.After(backoff):
		}
		mReconnects.Inc()
	}
}

// once runs one connection to exhaustion. delivered reports whether any
// message arrived (the backoff-reset signal). A connection that Stop
// cancelled ends without an error: it is no stream fault.
func (c *Client) once() (delivered bool, err error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.URL(c.From()), nil)
	if err != nil {
		return false, Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, c.unlessStopped(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for reuse
		return false, fmt.Errorf("replica: stream request: %s", resp.Status)
	}
	if c.OnState != nil {
		c.OnState(nil)
	}
	r := NewReader(wal.NewFrameReader(resp.Body))
	for {
		msg, err := r.Next()
		if err == io.EOF {
			return delivered, nil
		}
		if err != nil {
			return delivered, c.unlessStopped(err)
		}
		delivered = true
		if msg.Type == MsgEOF {
			return delivered, nil
		}
		if err := c.Handle(msg); err != nil {
			return delivered, err
		}
	}
}

// unlessStopped drops an error that Stop caused.
func (c *Client) unlessStopped(err error) error {
	if c.ctx.Err() != nil {
		return nil
	}
	return err
}
