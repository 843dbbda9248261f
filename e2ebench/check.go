package main

// Comparison of the program's answers with the oracle's.

import (
	"fmt"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/xpath"
)

// The server renders at most wireMaxNodes nodes of a node-set and
// clips every string at wireMaxBytes.
const (
	wireMaxNodes = 100
	wireMaxBytes = 64 << 10
)

// wireValue is the value object of a /query response, /batch line or
// router answer.
type wireValue struct {
	Kind      string     `json:"kind"`
	String    string     `json:"string"`
	Truncated bool       `json:"truncated"`
	Number    *float64   `json:"number"`
	Boolean   *bool      `json:"boolean"`
	Count     *int       `json:"count"`
	Nodes     []wireNode `json:"nodes"`
}

type wireNode struct {
	Type      string `json:"type"`
	Name      string `json:"name"`
	Value     string `json:"value"`
	Truncated bool   `json:"truncated"`
}

// clipString cuts s to wireMaxBytes without splitting a UTF-8
// sequence, as the wire format promises.
func clipString(s string) (string, bool) {
	if len(s) <= wireMaxBytes {
		return s, false
	}
	cut := wireMaxBytes
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut], true
}

// checkValue compares a rendered value with the expected answer: kind,
// count, number and boolean exactly, and the rendered node prefix
// (type, name and clipped string value of each of the first
// wireMaxNodes nodes).
func checkValue(want answer, got *wireValue) error {
	if got == nil {
		return fmt.Errorf("no value in the response")
	}
	if got.Kind != want.kind {
		return fmt.Errorf("kind %q, want %q", got.Kind, want.kind)
	}
	switch want.kind {
	case "number":
		if got.Number == nil || *got.Number != want.num {
			return fmt.Errorf("number %v, want %v", deref(got.Number), want.num)
		}
	case "boolean":
		if got.Boolean == nil || *got.Boolean != want.b {
			return fmt.Errorf("boolean %v, want %v", derefB(got.Boolean), want.b)
		}
		if w := fmt.Sprint(want.b); got.String != w {
			return fmt.Errorf("string %q, want %q", got.String, w)
		}
	case "node-set":
		if got.Count == nil || *got.Count != len(want.nodes) {
			c := -1
			if got.Count != nil {
				c = *got.Count
			}
			return fmt.Errorf("count %d, want %d", c, len(want.nodes))
		}
		first := ""
		if len(want.nodes) > 0 {
			first = want.nodes[0].value()
		}
		if s, tr := clipString(first); got.String != s || got.Truncated != tr {
			return fmt.Errorf("string %q, want %q", got.String, s)
		}
		n := len(want.nodes)
		if n > wireMaxNodes {
			n = wireMaxNodes
		}
		if len(got.Nodes) != n {
			return fmt.Errorf("%d rendered nodes, want %d", len(got.Nodes), n)
		}
		for i := 0; i < n; i++ {
			w, g := want.nodes[i], got.Nodes[i]
			name := ""
			if w.kind == "element" || w.kind == "attribute" {
				name = w.name
			}
			v, tr := clipString(w.value())
			if g.Type != w.kind || g.Name != name || g.Value != v || g.Truncated != tr {
				return fmt.Errorf("node %d is %s %q = %q, want %s %q = %q", i, g.Type, g.Name, g.Value, w.kind, name, v)
			}
		}
	default:
		return fmt.Errorf("oracle: unknown kind %q", want.kind)
	}
	return nil
}

func deref(p *float64) any {
	if p == nil {
		return "none"
	}
	return *p
}

func derefB(p *bool) any {
	if p == nil {
		return "none"
	}
	return *p
}

// renderCore renders an in-process result the way the server renders
// it on the wire, so in-process and served answers go through one
// check. It reads only what the engine returned.
func renderCore(d *core.Document, v core.Value) *wireValue {
	out := &wireValue{}
	switch v.Kind {
	case xpath.TypeNumber:
		out.Kind = "number"
		f := v.Num
		out.Number = &f
	case xpath.TypeBoolean:
		out.Kind = "boolean"
		b := v.Bool
		out.Boolean = &b
		out.String = fmt.Sprint(b)
	case xpath.TypeNodeSet:
		out.Kind = "node-set"
		n := len(v.Set)
		out.Count = &n
		for i, id := range v.Set {
			if i == wireMaxNodes {
				break
			}
			node := d.Node(id)
			wn := wireNode{Type: node.Type.String()}
			if wn.Type == "element" || wn.Type == "attribute" {
				wn.Name = node.Name
			}
			wn.Value, wn.Truncated = clipString(d.StringValue(id))
			out.Nodes = append(out.Nodes, wn)
		}
		if n > 0 {
			out.String, out.Truncated = clipString(d.StringValue(v.Set[0]))
		}
	default:
		out.Kind = "string"
		out.String = v.Str
	}
	return out
}
