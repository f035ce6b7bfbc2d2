package statechart

import "io"

// WriteXML encodes sc to w as an indented XML document.
func WriteXML(w io.Writer, sc *Statechart) error {
	data, err := MarshalXML(sc)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
