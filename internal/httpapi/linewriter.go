package httpapi

import (
	"net/http"
	"sync"
	"time"
)

// Coalescing bounds of a LineWriter: a line waits at most
// lineFlushDelay after it was produced, and at most lineBufCap bytes
// are held back before they are written.
const (
	lineFlushDelay = time.Millisecond
	lineBufCap     = 32 << 10
)

// maxPooledLineBuf keeps writers whose buffer grew around one huge
// line out of the pool.
const maxPooledLineBuf = 4 * lineBufCap

// LineWriter writes an NDJSON body with bounded latency and few
// writes. The first line is written and flushed at once, so the time
// to the first mapping is the producer's. Later lines collect in the
// writer's buffer, which is written and flushed in one call once its
// oldest line has waited lineFlushDelay or the buffer holds
// lineBufCap bytes; Close writes what is left. The bytes are those of
// writing each line on its own: only the number of writes changes.
//
// A timer enforces the delay even when the producer stalls between
// lines. The timer and the producer share one mutex, and Close clears
// the ResponseWriter under it, so a late timer never touches a
// finished response. Writers, their buffers and timers are pooled: a
// warm stream allocates nothing here.
type LineWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter // nil once closed
	flusher http.Flusher
	buf     []byte // produced lines not yet written
	started bool   // the first line has been written
	err     error  // the first downstream write failure
	timer   *time.Timer
}

var lineWriterPool = sync.Pool{New: func() any {
	lw := &LineWriter{buf: make([]byte, 0, lineBufCap)}
	lw.timer = time.AfterFunc(time.Hour, lw.onTimer)
	lw.timer.Stop()
	return lw
}}

// NewLineWriter returns a pooled LineWriter over w, which the caller
// must not write to until Close. Close returns the writer to the pool.
func NewLineWriter(w http.ResponseWriter) *LineWriter {
	lw := lineWriterPool.Get().(*LineWriter)
	lw.mu.Lock()
	lw.w = w
	lw.flusher, _ = w.(http.Flusher)
	lw.mu.Unlock()
	return lw
}

// WriteLine queues line plus a newline. It returns the first
// downstream write error, after which the stream is dead and the
// producer should stop.
func (lw *LineWriter) WriteLine(line []byte) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return lw.err
	}
	wasEmpty := len(lw.buf) == 0
	lw.buf = append(append(lw.buf, line...), '\n')
	switch {
	case !lw.started:
		lw.started = true
		lw.flushLocked()
	case len(lw.buf) >= lineBufCap:
		lw.flushLocked()
	case wasEmpty:
		// The oldest unsent line starts the clock.
		lw.timer.Reset(lineFlushDelay)
	}
	return lw.err
}

// onTimer writes the buffered lines once the oldest has waited out
// the delay. A tick left over from an earlier stream of a pooled
// writer at most flushes early.
func (lw *LineWriter) onTimer() {
	lw.mu.Lock()
	if lw.w != nil && lw.err == nil && len(lw.buf) > 0 {
		lw.flushLocked()
	}
	lw.mu.Unlock()
}

// flushLocked writes and flushes the buffer in one call.
func (lw *LineWriter) flushLocked() {
	_, lw.err = lw.w.Write(lw.buf)
	lw.buf = lw.buf[:0]
	if lw.err == nil && lw.flusher != nil {
		lw.flusher.Flush()
	}
}

// Close stops the timer, writes and flushes the remaining lines and
// releases the writer. Call it exactly once, before the handler
// returns or aborts; a deferred call covers both.
func (lw *LineWriter) Close() {
	lw.mu.Lock()
	lw.timer.Stop()
	if lw.err == nil && len(lw.buf) > 0 {
		lw.flushLocked()
	}
	lw.w, lw.flusher, lw.err, lw.started = nil, nil, nil, false
	lw.mu.Unlock()
	if cap(lw.buf) <= maxPooledLineBuf {
		lineWriterPool.Put(lw)
	}
}
