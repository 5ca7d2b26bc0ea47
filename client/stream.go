package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ExtractStream starts a streaming extraction (POST /v1/extract/stream)
// and returns an iterator over its NDJSON mappings. The server flushes
// the first mapping as soon as it is produced and writes every later
// one within 1 ms of being produced, so Next observes results with the
// enumerator's polynomial delay instead of waiting for the full output
// set.
//
// A non-200 response (bad query, missing document) is decoded into a
// typed *Error before any Stream is returned, so once a Stream exists
// the query was accepted. Close the stream to release the connection;
// canceling ctx aborts it mid-flight.
func (c *Client) ExtractStream(ctx context.Context, req StreamRequest) (*Stream, error) {
	resp, err := c.send(ctx, http.MethodPost, "/v1/extract/stream", req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return &Stream{body: resp.Body, br: bufio.NewReader(resp.Body)}, nil
}

// Stream iterates the NDJSON mappings of one streaming extraction.
// Not safe for concurrent use.
type Stream struct {
	body io.Closer
	br   *bufio.Reader
	err  error
}

// Next returns the next mapping, or io.EOF after the last one. Any
// other error means the stream was cut short — the server aborts the
// connection rather than ending the body cleanly when enumeration
// failed mid-flight, so a truncated result set is never mistaken for
// a complete one.
func (s *Stream) Next() (Result, error) {
	line, err := s.NextRaw()
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(line, &res); err != nil {
		s.err = fmt.Errorf("client: decode stream line: %w", err)
		return nil, s.err
	}
	return res, nil
}

// NextRaw returns the next raw NDJSON line without its trailing
// newline, or io.EOF after the last one. Proxies (spangate) forward
// these bytes verbatim so the merged stream is byte-identical to the
// shard's.
func (s *Stream) NextRaw() ([]byte, error) {
	if s.err != nil {
		return nil, s.err
	}
	line, err := s.br.ReadBytes('\n')
	if len(line) > 0 && line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			// A final line without its newline: the connection died
			// mid-record. Surface it as a truncation, not a mapping.
			err = io.ErrUnexpectedEOF
		}
		s.err = err
		return nil, err
	}
	return line, nil
}

// Close releases the underlying connection. It is safe to call twice
// and after Next returned an error.
func (s *Stream) Close() error {
	if s.err == nil {
		s.err = io.EOF
	}
	return s.body.Close()
}
