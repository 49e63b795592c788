package dataset

import (
	"encoding/csv"
	"io"
	"os"
	"strconv"
)

// WriteCSV serializes the dataset: a header row with metadata
// (`name,<name>,<raw lo>,<raw hi>`) followed by one normalized value per
// row, every float in the shortest form that parses back exactly.
func (d *Numeric) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", d.Name,
		strconv.FormatFloat(d.RawLo, 'g', -1, 64),
		strconv.FormatFloat(d.RawHi, 'g', -1, 64)}); err != nil {
		return err
	}
	for _, v := range d.Values {
		if err := cw.Write([]string{strconv.FormatFloat(v, 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveFile writes the dataset to path.
func (d *Numeric) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
