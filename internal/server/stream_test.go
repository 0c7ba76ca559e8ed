package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/recovery"
	"repro/internal/reliablesort"
)

// The reference framing below is the stream lane as first written,
// with encoding/binary's reflective Read and Write and one call per
// field. The buffered lane must put the same bytes on the wire and
// accept exactly the request frames refReadRequestFrame accepts.

// refWriteRequestFrame writes req the way the reference client did.
func refWriteRequestFrame(w io.Writer, req Request) error {
	hdr, err := json.Marshal(streamHeader{
		Tenant: req.Tenant, Descending: req.Descending, Dim: req.Dim, Inject: req.Inject,
	})
	if err != nil {
		return err
	}
	for _, v := range []any{uint32(StreamMagic), uint32(len(hdr))} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(req.Keys))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, req.Keys)
}

// refReadRequestFrame parses one request frame the way the reference
// server did.
func refReadRequestFrame(r io.Reader, maxKeys int) (*Request, error) {
	var magic, hdrLen uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != StreamMagic {
		return nil, fmt.Errorf("stream: bad magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &hdrLen); err != nil {
		return nil, err
	}
	if hdrLen > maxStreamHeader {
		return nil, fmt.Errorf("stream: header %d bytes exceeds %d", hdrLen, maxStreamHeader)
	}
	hdrBuf := make([]byte, hdrLen)
	if _, err := io.ReadFull(r, hdrBuf); err != nil {
		return nil, err
	}
	var hdr streamHeader
	if err := json.Unmarshal(hdrBuf, &hdr); err != nil {
		return nil, fmt.Errorf("stream: header: %w", err)
	}
	var nkeys uint64
	if err := binary.Read(r, binary.LittleEndian, &nkeys); err != nil {
		return nil, err
	}
	if nkeys > uint64(maxKeys) {
		return nil, fmt.Errorf("stream: %d keys exceeds limit %d", nkeys, maxKeys)
	}
	keys := make([]int64, nkeys)
	if err := binary.Read(r, binary.LittleEndian, keys); err != nil {
		return nil, err
	}
	return &Request{
		Tenant:     hdr.Tenant,
		Keys:       keys,
		Descending: hdr.Descending,
		Dim:        hdr.Dim,
		Inject:     hdr.Inject,
	}, nil
}

// refWriteResponseFrame writes the response frame for (resp, serr)
// the way the reference server did.
func refWriteResponseFrame(w io.Writer, resp *Response, serr error) error {
	status := streamStatus(serr)
	var body []byte
	var err error
	if serr != nil {
		_, eb := classify(serr)
		body, err = json.Marshal(eb)
	} else {
		trimmed := *resp
		trimmed.Sorted = nil
		body, err = json.Marshal(&trimmed)
	}
	if err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, status); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(body))); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	if status != StatusOK {
		return nil
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(resp.Sorted))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, resp.Sorted)
}

func refRequestBytes(t testing.TB, reqs ...Request) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, req := range reqs {
		if err := refWriteRequestFrame(&b, req); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

func refResponseBytes(t testing.TB, resp *Response, serr error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := refWriteResponseFrame(&b, resp, serr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// readerConn is a frameConn that reads r and discards what it sends.
func readerConn(r io.Reader) *frameConn {
	return newFrameConn(struct {
		io.Reader
		io.Writer
	}{r, io.Discard})
}

// writeLog records each Write call it is handed.
type writeLog struct {
	mu     sync.Mutex
	writes [][]byte
}

func (l *writeLog) record(p []byte) {
	l.mu.Lock()
	l.writes = append(l.writes, bytes.Clone(p))
	l.mu.Unlock()
}

func (l *writeLog) Write(p []byte) (int, error) {
	l.record(p)
	return len(p), nil
}

// take returns the recorded writes and forgets them.
func (l *writeLog) take() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.writes
	l.writes = nil
	return w
}

// countingConn records every Write before passing it on, so a write
// is on the log by the time its peer can read it.
type countingConn struct {
	net.Conn
	log writeLog
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.log.record(p)
	return c.Conn.Write(p)
}

// countingListener wraps each accepted connection and hands it to the
// test.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.accepted <- cc
	return cc, nil
}

// startStream serves s's stream lane on a loopback listener, wrapped
// by wrap when it is non-nil.
func startStream(t *testing.T, s *Server, wrap func(net.Listener) net.Listener) *StreamServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		ln = wrap(ln)
	}
	ss := s.NewStreamServer(ln)
	go ss.Serve()
	return ss
}

// TestStreamOneWritePerFrame drives a connection whose two ends record
// their writes: the client sends each request frame, and the server
// each OK and error response frame, in exactly one Write, and each
// write holds the bytes the reference framing produces.
func TestStreamOneWritePerFrame(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	accepted := make(chan *countingConn, 1)
	ss := startStream(t, s, func(ln net.Listener) net.Listener {
		return &countingListener{Listener: ln, accepted: accepted}
	})
	defer ss.Close()
	raw, err := net.Dial("tcp", ss.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	c := newStreamClient(cc)
	defer c.Close()
	srvConn := <-accepted

	keys := []int64{42, -7, 19, 3, 88, 0, -1, 55, 6, 2, 71, -30, 14, 9, 27, 100}
	jobs := []Request{
		{Tenant: "stream", Keys: keys, Dim: 2},
		{Tenant: "stream"}, // empty keys: an error frame
		{Tenant: "stream", Keys: keys, Descending: true,
			Inject: &ChaosSpec{Class: "comparison", Node: 1, Mode: "cmp-persistent", Rate: 1, Seed: 5}},
		{Keys: []int64{math.MinInt64, math.MaxInt64 - 1, 0, -1}},
	}
	for i, req := range jobs {
		resp, eb, err := c.Do(req)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if w := cc.log.take(); len(w) != 1 || !bytes.Equal(w[0], refRequestBytes(t, req)) {
			t.Errorf("job %d: client wrote %d times, want one write of the reference request frame", i, len(w))
		}
		// The injected job may end in a structured error, whose detail
		// the test cannot rebuild; its frame is still one write.
		var want []byte
		switch {
		case eb == nil:
			assertVerified(t, req.Keys, resp, req.Descending)
			want = refResponseBytes(t, resp, nil)
		case len(req.Keys) == 0:
			_, serr := s.Submit(req)
			want = refResponseBytes(t, nil, serr)
		case req.Inject == nil:
			t.Fatalf("job %d: unexpected error body %+v", i, eb)
		}
		if w := srvConn.log.take(); len(w) != 1 || (want != nil && !bytes.Equal(w[0], want)) {
			t.Errorf("job %d: server wrote %d times, want one write of the reference response frame", i, len(w))
		}
	}
}

// TestWriteResponseFrameMatchesReference holds every status's frame to
// the reference bytes, one Write each, through a reused frame buffer
// that shrinks from a long frame to short ones.
func TestWriteResponseFrameMatchesReference(t *testing.T) {
	long := make([]int64, 3000)
	for i := range long {
		long[i] = int64(i)*7919 - 1<<40
	}
	stats := JobStats{Nodes: 4, BlockLen: 750, Makespan: 12345, Msgs: 40, Bytes: 9000,
		Attempts: 2, Quarantined: []int{3}, Accused: []int{3}, QueueMillis: 1, RunMillis: 2}
	cases := []struct {
		name string
		resp *Response
		serr error
	}{
		{"ok-long", &Response{JobID: 7, Tenant: "alpha", Sorted: long, Stats: stats}, nil},
		{"ok-short", &Response{JobID: 8, Tenant: "beta", Sorted: []int64{-3, 5}}, nil},
		{"invalid", nil, fmt.Errorf("%w: empty keys", ErrInvalid)},
		{"overloaded", nil, ErrOverloaded},
		{"closed", nil, ErrClosed},
		{"exhausted", nil, &recovery.ExhaustedError{Attempts: make([]recovery.Attempt, 3), Quarantined: []int{2, 5}}},
		{"fault", nil, fmt.Errorf("attempt: %w", reliablesort.ErrFaultDetected)},
		{"internal", nil, errors.New("boom")},
		{"ok-after-errors", &Response{JobID: 9, Tenant: "gamma", Sorted: []int64{1}}, nil},
	}
	var log writeLog
	fc := newFrameConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), &log})
	for _, c := range cases {
		if err := fc.writeResponseFrame(c.resp, c.serr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if w := log.take(); len(w) != 1 || !bytes.Equal(w[0], refResponseBytes(t, c.resp, c.serr)) {
			t.Errorf("%s: %d writes, want one write of the reference frame", c.name, len(w))
		}
	}
}

// readCounter counts the Read calls made on r.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestReadRequestFrameSplitAndCoalesced parses two request frames
// delivered one byte per Read, and delivered together in one Read, to
// the requests the reference parser reads.
func TestReadRequestFrameSplitAndCoalesced(t *testing.T) {
	reqs := []Request{
		{Tenant: "alpha", Keys: []int64{5, -1, math.MaxInt64, 0}, Dim: 2,
			Inject: &ChaosSpec{Class: "message", Node: 1, Strategy: "key-lie", Lie: 99}},
		{Keys: []int64{math.MinInt64}, Descending: true},
	}
	data := refRequestBytes(t, reqs...)
	ref := bytes.NewReader(data)
	var want []*Request
	for range reqs {
		r, err := refReadRequestFrame(ref, 64)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	for i, r := range want {
		if !reflect.DeepEqual(*r, reqs[i]) {
			t.Fatalf("reference parser: request %d = %+v, want %+v", i, r, reqs[i])
		}
	}

	parse := func(name string, r io.Reader) *frameConn {
		fc := readerConn(r)
		for i := range want {
			got, err := fc.readRequestFrame(64)
			if err != nil || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: request %d = %+v, %v; want %+v", name, i, got, err, want[i])
			}
		}
		return fc
	}
	fc := parse("one byte per read", iotest.OneByteReader(bytes.NewReader(data)))
	if _, err := fc.readRequestFrame(64); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
	rc := &readCounter{r: bytes.NewReader(data)}
	parse("coalesced", rc)
	if rc.reads != 1 {
		t.Errorf("coalesced: %d reads for two frames in one read's worth of bytes, want 1", rc.reads)
	}
}

// TestMalformedFrameClosesConnection sends frames the server must not
// trust: each ends the connection with no response frame.
func TestMalformedFrameClosesConnection(t *testing.T) {
	cfg := testConfig()
	cfg.MaxKeys = 64
	s := New(cfg)
	defer s.Close()
	ss := startStream(t, s, nil)
	defer ss.Close()

	le := binary.LittleEndian
	head := func(magic, hdrLen uint32) []byte {
		return le.AppendUint32(le.AppendUint32(nil, magic), hdrLen)
	}
	withKeys := func(nkeys uint64, keys ...int64) []byte {
		b := append(head(StreamMagic, 2), "{}"...)
		b = le.AppendUint64(b, nkeys)
		for _, k := range keys {
			b = le.AppendUint64(b, uint64(k))
		}
		return b
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"bad magic", head(0x53525432, 2)},
		{"header over 1 MiB", head(StreamMagic, maxStreamHeader+1)},
		{"key count over MaxKeys", withKeys(65, make([]int64, 65)...)},
		{"truncated keys", withKeys(4, 1, 2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ss.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(c.frame); err != nil {
				t.Fatal(err)
			}
			// Ending the stream makes a truncated frame final.
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			got, err := io.ReadAll(conn)
			if len(got) != 0 {
				t.Errorf("server answered %d bytes", len(got))
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Errorf("connection still open: %v", err)
			}
		})
	}
	// The lane still serves a well-formed client.
	c, err := DialStream(ss.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, eb, err := c.Do(Request{Keys: []int64{3, 1, 2, 0}, Dim: 1})
	if err != nil || eb != nil {
		t.Fatalf("after malformed frames: %v %+v", err, eb)
	}
	assertVerified(t, []int64{3, 1, 2, 0}, resp, false)
}

// TestStreamClientRefusesWrongKeyCount answers a client's job with an
// OK frame whose key count is not the job's. The client reports a
// framing error before allocating anything for the count, so a count
// near 2^62 never reaches makeslice.
func TestStreamClientRefusesWrongKeyCount(t *testing.T) {
	keys := []int64{4, 2, 3, 1}
	for _, nkeys := range []uint64{1 << 62, math.MaxUint64, uint64(len(keys)) + 1, uint64(len(keys)) - 1} {
		t.Run(fmt.Sprint(nkeys), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			stubDone := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					stubDone <- err
					return
				}
				defer conn.Close()
				if _, err := refReadRequestFrame(conn, 64); err != nil {
					stubDone <- err
					return
				}
				le := binary.LittleEndian
				body := []byte(`{"job_id":1,"tenant":"default","stats":{}}`)
				frame := append(le.AppendUint32(le.AppendUint32(nil, StatusOK), uint32(len(body))), body...)
				frame = le.AppendUint64(frame, nkeys)
				for _, k := range keys {
					frame = le.AppendUint64(frame, uint64(k))
				}
				_, err = conn.Write(frame)
				stubDone <- err
			}()
			c, err := DialStream(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			resp, eb, err := c.Do(Request{Keys: keys})
			if err == nil {
				t.Errorf("accepted %d keys for a %d-key job: %+v %+v", nkeys, len(keys), resp, eb)
			}
			if err := <-stubDone; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// streamResult is what a parser made of one frame.
type streamResult struct {
	req *Request
	ok  bool
}

// parseFrames parses up to max frames until the first error.
func parseFrames(max int, read func() (*Request, error)) []streamResult {
	var out []streamResult
	for len(out) < max {
		req, err := read()
		out = append(out, streamResult{req, err == nil})
		if err != nil {
			break
		}
	}
	return out
}

// FuzzReadRequestFrame holds the buffered request parser to the
// reference one on arbitrary bytes, delivered whole and one byte per
// Read: the same frames accepted, the same requests, the same frame
// rejected.
func FuzzReadRequestFrame(f *testing.F) {
	const maxKeys = 32
	le := binary.LittleEndian
	good := []Request{
		{Tenant: "alpha", Keys: []int64{3, -1, 2}, Dim: 1},
		{Keys: []int64{math.MinInt64, math.MaxInt64}, Descending: true,
			Inject: &ChaosSpec{Class: "memory", Node: 2, Mode: "mem-flip", Rate: 0.5, Seed: 9}},
		{Tenant: "empty"},
	}
	for _, req := range good {
		f.Add(refRequestBytes(f, req))
	}
	f.Add(refRequestBytes(f, good...))
	f.Add(le.AppendUint32(le.AppendUint32(nil, 0x31545253), 2))
	f.Add(le.AppendUint32(le.AppendUint32(nil, StreamMagic), maxStreamHeader+1))
	f.Add(refRequestBytes(f, Request{Keys: make([]int64, maxKeys+1)}))
	f.Add(refRequestBytes(f, good[0])[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := bytes.NewReader(data)
		want := parseFrames(4, func() (*Request, error) { return refReadRequestFrame(ref, maxKeys) })
		for _, split := range []bool{false, true} {
			var r io.Reader = bytes.NewReader(data)
			if split {
				r = iotest.OneByteReader(r)
			}
			fc := readerConn(r)
			got := parseFrames(4, func() (*Request, error) { return fc.readRequestFrame(maxKeys) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("split=%v: parsed %s, reference %s", split, describe(got), describe(want))
			}
		}
	})
}

func describe(rs []streamResult) string {
	var b bytes.Buffer
	for _, r := range rs {
		js, _ := json.Marshal(r.req) // null for a rejected frame
		b.Write(js)
		b.WriteByte(' ')
	}
	return b.String()
}
