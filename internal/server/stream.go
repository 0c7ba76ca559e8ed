// Length-prefixed streaming wire protocol — the bulk lane next to the
// HTTP/JSON front door. Keys travel as raw little-endian int64s
// instead of JSON numbers, and one connection carries any number of
// jobs back to back, so a load generator saturates the service
// without spending its budget on text encoding.
//
// Request frame:
//
//	u32  magic "SRT1" (0x53525431)
//	u32  header length
//	...  header JSON: {"tenant","descending","dim","inject"}
//	u64  key count
//	...  count × s64 keys, little-endian
//
// Response frame:
//
//	u32  status (see Status* constants)
//	u32  body length
//	...  body JSON: Response (sans keys) on ok, ErrorBody otherwise
//	u64  key count   — present only on StatusOK
//	...  count × s64 sorted keys, little-endian
//
// Frames are processed strictly in order per connection; a client
// wanting parallelism opens parallel connections (each worker of
// cmd/sortload does). The connection closes on the first malformed
// frame — after a framing error the byte stream cannot be trusted.
// Both ends build each frame whole and send it with one write, and
// read the connection through one buffered reader.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"repro/internal/wire"
)

// StreamMagic begins every request frame ("SRT1").
const StreamMagic = 0x53525431

// Status codes of the response frame.
const (
	StatusOK         = 0
	StatusInvalid    = 1
	StatusOverloaded = 2
	StatusFault      = 3
	StatusClosed     = 4
	StatusInternal   = 5
)

// maxStreamHeader bounds the JSON header of a request frame.
const maxStreamHeader = 1 << 20

// streamHeader is the JSON metadata of a request frame: a Request
// without the bulk keys.
type streamHeader struct {
	Tenant     string     `json:"tenant,omitempty"`
	Descending bool       `json:"descending,omitempty"`
	Dim        int        `json:"dim,omitempty"`
	Inject     *ChaosSpec `json:"inject,omitempty"`
}

// streamStatus maps a Submit error to a wire status.
func streamStatus(err error) uint32 {
	switch {
	case errors.Is(err, ErrInvalid):
		return StatusInvalid
	case errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, ErrClosed):
		return StatusClosed
	case err != nil:
		status, _ := classify(err)
		if status == 422 {
			return StatusFault
		}
		return StatusInternal
	}
	return StatusOK
}

// StreamServer accepts stream-protocol connections and feeds their
// jobs through the same Submit path (admission, tenant queues,
// workers) as the HTTP front end.
type StreamServer struct {
	srv *Server
	ln  net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
	done  chan struct{}
}

// NewStreamServer wraps ln; call Serve to start accepting.
func (s *Server) NewStreamServer(ln net.Listener) *StreamServer {
	return &StreamServer{
		srv:   s,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
}

// Addr returns the listener's address.
func (ss *StreamServer) Addr() net.Addr { return ss.ln.Addr() }

// Serve accepts connections until Close, handling each on its own
// goroutine. It returns nil after Close.
func (ss *StreamServer) Serve() error {
	for {
		conn, err := ss.ln.Accept()
		if err != nil {
			select {
			case <-ss.done:
				return nil
			default:
				return err
			}
		}
		ss.mu.Lock()
		ss.conns[conn] = struct{}{}
		ss.mu.Unlock()
		ss.wg.Add(1)
		go func() {
			defer ss.wg.Done()
			ss.handle(conn)
			ss.mu.Lock()
			delete(ss.conns, conn)
			ss.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes open connections, and waits for
// handlers to drain.
func (ss *StreamServer) Close() {
	select {
	case <-ss.done:
		return
	default:
		close(ss.done)
	}
	ss.ln.Close()
	ss.mu.Lock()
	for c := range ss.conns {
		c.Close()
	}
	ss.mu.Unlock()
	ss.wg.Wait()
}

// handle runs one connection's job sequence.
func (ss *StreamServer) handle(conn net.Conn) {
	defer conn.Close()
	fc := newFrameConn(conn)
	for {
		req, err := fc.readRequestFrame(ss.srv.cfg.MaxKeys)
		if err != nil {
			return // EOF between frames is the normal end; errors drop the conn
		}
		resp, serr := ss.srv.Submit(*req)
		if werr := fc.writeResponseFrame(resp, serr); werr != nil {
			return
		}
	}
}

// streamReadBuf sizes each connection's bufio.Reader. A frame of a
// few hundred keys arrives in one read; a longer key run is read
// straight into the frame buffer.
const streamReadBuf = 16 << 10

// frameConn is one end of a stream connection: one buffered reader
// and one frame buffer, reused by every frame. A frame is built whole
// in buf and sent with one Write, and a frame is read into buf piece
// by piece, each piece consumed before the next read.
type frameConn struct {
	w   io.Writer
	r   *bufio.Reader
	buf []byte
}

func newFrameConn(rw io.ReadWriter) *frameConn {
	return &frameConn{w: rw, r: bufio.NewReaderSize(rw, streamReadBuf)}
}

// next reads the next n bytes of the stream into the frame buffer and
// returns them; they stay valid until the next call.
func (fc *frameConn) next(n int) ([]byte, error) {
	if cap(fc.buf) < n {
		fc.buf = make([]byte, n)
	}
	b := fc.buf[:n]
	if _, err := io.ReadFull(fc.r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// readKeys reads n little-endian keys and decodes them into a new
// slice.
func (fc *frameConn) readKeys(n int) ([]int64, error) {
	b, err := fc.next(8 * n)
	if err != nil {
		return nil, err
	}
	keys := make([]int64, n)
	wire.ReadVals(keys, b)
	return keys, nil
}

// send writes one frame, built by appending to fc.buf[:0], with one
// Write, and keeps the frame's storage as the frame buffer.
func (fc *frameConn) send(frame []byte) error {
	fc.buf = frame
	_, err := fc.w.Write(frame)
	return err
}

// appendHead appends a frame's two u32 words and its JSON.
func appendHead(b []byte, w0, w1 uint32, js []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, w0)
	b = binary.LittleEndian.AppendUint32(b, w1)
	return append(b, js...)
}

// appendKeys appends a key count and the keys.
func appendKeys(b []byte, keys []int64) []byte {
	b = slices.Grow(b, 8+8*len(keys))
	return wire.AppendVals(binary.LittleEndian.AppendUint64(b, uint64(len(keys))), keys)
}

// readRequestFrame parses one request frame. maxKeys bounds the key
// allocation before it happens.
func (fc *frameConn) readRequestFrame(maxKeys int) (*Request, error) {
	b, err := fc.next(8)
	if err != nil {
		return nil, err
	}
	if magic := binary.LittleEndian.Uint32(b); magic != StreamMagic {
		return nil, fmt.Errorf("stream: bad magic %#x", magic)
	}
	hdrLen := binary.LittleEndian.Uint32(b[4:])
	if hdrLen > maxStreamHeader {
		return nil, fmt.Errorf("stream: header %d bytes exceeds %d", hdrLen, maxStreamHeader)
	}
	if b, err = fc.next(int(hdrLen)); err != nil {
		return nil, err
	}
	var hdr streamHeader
	if err := json.Unmarshal(b, &hdr); err != nil {
		return nil, fmt.Errorf("stream: header: %w", err)
	}
	if b, err = fc.next(8); err != nil {
		return nil, err
	}
	nkeys := binary.LittleEndian.Uint64(b)
	if nkeys > uint64(maxKeys) {
		return nil, fmt.Errorf("stream: %d keys exceeds limit %d", nkeys, maxKeys)
	}
	keys, err := fc.readKeys(int(nkeys))
	if err != nil {
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

// writeResponseFrame sends one response frame for (resp, serr).
func (fc *frameConn) writeResponseFrame(resp *Response, serr error) error {
	status := streamStatus(serr)
	if serr != nil {
		_, eb := classify(serr)
		body, err := json.Marshal(eb)
		if err != nil {
			return err
		}
		return fc.send(appendHead(fc.buf[:0], status, uint32(len(body)), body))
	}
	// The bulk keys ride binary after the JSON body.
	trimmed := *resp
	trimmed.Sorted = nil
	body, err := json.Marshal(&trimmed)
	if err != nil {
		return err
	}
	return fc.send(appendKeys(appendHead(fc.buf[:0], status, uint32(len(body)), body), resp.Sorted))
}

// StreamClient is the caller side of the wire protocol — one
// connection, jobs in lockstep. cmd/sortload and the tests use it;
// external callers can treat it as the protocol's reference
// implementation.
type StreamClient struct {
	conn net.Conn
	fc   *frameConn
}

// DialStream connects a StreamClient to addr.
func DialStream(addr string) (*StreamClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newStreamClient(conn), nil
}

func newStreamClient(conn net.Conn) *StreamClient {
	return &StreamClient{conn: conn, fc: newFrameConn(conn)}
}

// Close closes the connection.
func (c *StreamClient) Close() error { return c.conn.Close() }

// Do submits one job and waits for its frame. A non-OK status returns
// (nil, body, nil); transport/framing problems return the third
// error and the connection must be abandoned. An OK frame must carry
// exactly len(req.Keys) keys: the server strips its padding.
func (c *StreamClient) Do(req Request) (*Response, *ErrorBody, error) {
	hdr, err := json.Marshal(streamHeader{
		Tenant: req.Tenant, Descending: req.Descending, Dim: req.Dim, Inject: req.Inject,
	})
	if err != nil {
		return nil, nil, err
	}
	frame := appendKeys(appendHead(c.fc.buf[:0], StreamMagic, uint32(len(hdr)), hdr), req.Keys)
	if err := c.fc.send(frame); err != nil {
		return nil, nil, err
	}

	b, err := c.fc.next(8)
	if err != nil {
		return nil, nil, err
	}
	status, bodyLen := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
	if bodyLen > maxStreamHeader {
		return nil, nil, fmt.Errorf("stream: body %d bytes exceeds %d", bodyLen, maxStreamHeader)
	}
	body, err := c.fc.next(int(bodyLen))
	if err != nil {
		return nil, nil, err
	}
	if status != StatusOK {
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			return nil, nil, fmt.Errorf("stream: error body: %w", err)
		}
		return nil, &eb, nil
	}
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, fmt.Errorf("stream: response body: %w", err)
	}
	if b, err = c.fc.next(8); err != nil {
		return nil, nil, err
	}
	if nkeys := binary.LittleEndian.Uint64(b); nkeys != uint64(len(req.Keys)) {
		return nil, nil, fmt.Errorf("stream: response carries %d keys for a %d-key job", nkeys, len(req.Keys))
	}
	if resp.Sorted, err = c.fc.readKeys(len(req.Keys)); err != nil {
		return nil, nil, err
	}
	return &resp, nil, nil
}
