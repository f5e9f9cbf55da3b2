package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Call performs one protocol round trip: POST in as JSON (or a bodiless
// request when in is nil), and decode a 200 answer into out with
// UseNumber so numeric cells keep the sender's literal bytes. A 200 body
// is decoded as it arrives, never copied whole, and read to its end so
// the connection goes back to the client's pool. A non-200 answer comes
// back as *Error; anything else — transport failure, short read,
// undecodable body — as a plain error naming the step.
func Call(ctx context.Context, hc *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("encode request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("read response: %w", err)
		}
		var env ErrorEnvelope
		if json.Unmarshal(raw, &env) != nil || env.Error.Code == "" {
			const max = 200
			if len(raw) > max {
				raw = append(raw[:max:max], "..."...)
			}
			return &Error{Status: resp.StatusCode, Message: string(raw)}
		}
		return &Error{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
	}
	rd := readErr{r: resp.Body}
	dec := json.NewDecoder(&rd)
	dec.UseNumber()
	err = dec.Decode(out)
	if err == nil {
		// The encoder's trailing newline, at least, is still unread.
		_, err = io.Copy(io.Discard, &rd)
	}
	if rd.err != nil {
		return fmt.Errorf("read response: %w", rd.err)
	}
	if err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// readErr passes reads through and keeps the first error other than
// io.EOF: what tells a body that could not be read from one that could
// not be decoded.
type readErr struct {
	r   io.Reader
	err error
}

func (e *readErr) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}
