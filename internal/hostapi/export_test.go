package hostapi

// Post issues a raw admin request: tests send what the typed Client
// methods never would.
func (c *Client) Post(path, contentType string, body []byte) error {
	return c.post(path, contentType, body)
}
