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
// UseNumber so numeric cells keep the sender's literal bytes. A non-200
// answer comes back as *Error; anything else — transport failure, short
// read, undecodable body — as a plain error naming the step.
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
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
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
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}
