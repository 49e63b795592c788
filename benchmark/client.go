package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
)

// conn is one keep-alive HTTP/1.1 connection over host loopback. The
// benchmark writes pre-rendered request bytes and reads the reply; no
// request is formatted inside a timed window.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // reply buffer, reused
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// head renders the request line and fixed headers of a request; the
// caller appends a Content-Length line and the body.
func head(method, path, contentType string) []byte {
	h := method + " " + path + " HTTP/1.1\r\nHost: dap\r\n"
	if contentType != "" {
		h += "Content-Type: " + contentType + "\r\n"
	}
	return []byte(h)
}

// roundTrip writes the parts back to back as one request and reads the
// reply. The returned body aliases the connection's buffer and is valid
// until the next call.
func (c *conn) roundTrip(parts ...[]byte) (int, []byte, error) {
	bufs := net.Buffers(parts)
	if _, err := bufs.WriteTo(c.c); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			_ = resp.Body.Close()
			return 0, nil, err
		}
	}
	_ = resp.Body.Close() // fully read; nothing left to release
	return resp.StatusCode, c.body, nil
}

// call is the untimed convenience form: one request with an optional body.
func (c *conn) call(method, path, contentType string, body []byte) (int, []byte, error) {
	return c.roundTrip(head(method, path, contentType),
		[]byte("Content-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"), body)
}

// expect fails unless the call answered with the wanted status.
func (c *conn) expect(want int, method, path, contentType string, body []byte) ([]byte, error) {
	status, out, err := c.call(method, path, contentType, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, status, out)
	}
	return out, nil
}
