package cod

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"

	"codsim/internal/wire"
)

// The codec maps a plain Go struct to and from a wire.AttrSet. Attribute
// IDs are assigned positionally: the i-th encoded field (exported, not
// tagged `cod:"-"`, in declaration order) gets AttrID i+1. Both ends of a
// class therefore interoperate exactly when they declare the same fields
// in the same order — the struct *is* the object-model entry, the typed
// analog of a fom class.
//
// Supported field kinds: bool, all int/uint sizes, float32/float64,
// string, []byte, []float64, []int64, []string. Unexported fields are
// skipped; any other exported kind is rejected when the codec is built,
// so Publish/Subscribe fail fast instead of dropping data at runtime.
//
// Reflection runs only at build time. The cached field table holds each
// field's byte offset and kind, so the encode/decode hot path is a switch
// over direct loads and stores through the struct pointer — no
// reflect.Value per field, no interface boxing, and nothing that makes
// the caller's value escape to the heap. That covers strings and slices
// too: a named type (type Path []float64) has its underlying type's
// memory layout, and named element types are rejected at build time, so
// the field is read and written as the canonical type. The leading run of
// fixed-size fields is laid out once too, as a wire.Layout (encodeInto and
// decodeInto say how they use it).

// ErrUnsupportedType reports a struct field the codec cannot map.
var ErrUnsupportedType = errors.New("cod: unsupported field type")

// ErrMissingAttr reports a reflection that lacks an attribute the
// subscriber's struct declares — the two ends disagree on the class shape.
var ErrMissingAttr = errors.New("cod: missing attribute")

// fieldKind enumerates the wire-mappable field shapes. Scalar kinds are
// distinguished by width so the hot path can load/store the exact type.
type fieldKind uint8

const (
	kindBool fieldKind = iota
	kindInt
	kindInt8
	kindInt16
	kindInt32
	kindInt64
	kindUint
	kindUint8
	kindUint16
	kindUint32
	kindUint64
	kindFloat32
	kindFloat64
	kindString
	kindBytes
	kindFloat64s
	kindInt64s
	kindStrings
)

// size is the wire size of a fixed-size kind's value, 0 for the variable
// kinds (strings and slices).
func (k fieldKind) size() int {
	switch {
	case k == kindBool:
		return 1
	case k <= kindFloat64:
		return 8
	default:
		return 0
	}
}

type fieldCodec struct {
	name string
	id   wire.AttrID
	off  uintptr // byte offset within the struct, fixed at build time
	kind fieldKind
	at   int // a prefix field's value offset in the attribute section
}

type codec struct {
	typ    reflect.Type
	fields []fieldCodec
	prefix wire.Layout // fields[:nfixed], the leading run of fixed-size fields
	nfixed int
}

// codecCache memoizes built codecs by struct type; reflection runs once
// per type per process, the hot path only walks the cached field table.
var codecCache sync.Map // reflect.Type → *codec or error

func codecFor(t reflect.Type) (*codec, error) {
	cached, ok := codecCache.Load(t)
	if !ok {
		// Callers that miss at once each build; the first to store wins,
		// so every Pub and Sub of a type shares one codec.
		c, err := buildCodec(t)
		var built any = c
		if err != nil {
			built = err
		}
		cached, _ = codecCache.LoadOrStore(t, built)
	}
	if err, bad := cached.(error); bad {
		return nil, err
	}
	return cached.(*codec), nil
}

func buildCodec(t reflect.Type) (*codec, error) {
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("%w: %s is not a struct", ErrUnsupportedType, t)
	}
	c := &codec{typ: t}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("cod") == "-" {
			continue
		}
		kind, err := kindFor(f.Type)
		if err != nil {
			return nil, fmt.Errorf("%w: %s.%s (%s)", ErrUnsupportedType, t, f.Name, f.Type)
		}
		c.fields = append(c.fields, fieldCodec{
			name: f.Name,
			id:   wire.AttrID(len(c.fields) + 1),
			off:  f.Offset,
			kind: kind,
		})
	}
	if len(c.fields) == 0 {
		return nil, fmt.Errorf("%w: %s has no encodable fields", ErrUnsupportedType, t)
	}
	var ids []wire.AttrID
	var sizes []int
	for _, f := range c.fields {
		n := f.kind.size()
		if n == 0 {
			break
		}
		ids, sizes = append(ids, f.id), append(sizes, n)
	}
	var err error
	if c.prefix, err = wire.NewLayout(ids, sizes); err != nil {
		return nil, fmt.Errorf("cod: %s: %w", t, err)
	}
	c.nfixed = len(ids)
	for i := range c.nfixed {
		c.fields[i].at = c.prefix.Offset(i)
	}
	return c, nil
}

func kindFor(t reflect.Type) (fieldKind, error) {
	switch t.Kind() {
	case reflect.Bool:
		return kindBool, nil
	case reflect.Int:
		return kindInt, nil
	case reflect.Int8:
		return kindInt8, nil
	case reflect.Int16:
		return kindInt16, nil
	case reflect.Int32:
		return kindInt32, nil
	case reflect.Int64:
		return kindInt64, nil
	case reflect.Uint:
		return kindUint, nil
	case reflect.Uint8:
		return kindUint8, nil
	case reflect.Uint16:
		return kindUint16, nil
	case reflect.Uint32:
		return kindUint32, nil
	case reflect.Uint64:
		return kindUint64, nil
	case reflect.Float32:
		return kindFloat32, nil
	case reflect.Float64:
		return kindFloat64, nil
	case reflect.String:
		return kindString, nil
	case reflect.Slice:
		return sliceKind(t)
	default:
		return 0, ErrUnsupportedType
	}
}

// Canonical slice types the codec serializes. Named slice types with these
// exact element types (type Path []float64) are accessed as them; named
// *element* types ([]MyFloat) are rejected at build time — Go forbids the
// slice conversion, and rejecting keeps the fail-fast contract.
var (
	bytesType    = reflect.TypeOf([]byte(nil))
	float64sType = reflect.TypeOf([]float64(nil))
	int64sType   = reflect.TypeOf([]int64(nil))
	stringsType  = reflect.TypeOf([]string(nil))
)

func sliceKind(t reflect.Type) (fieldKind, error) {
	switch t.Elem() {
	case bytesType.Elem():
		return kindBytes, nil
	case float64sType.Elem():
		return kindFloat64s, nil
	case int64sType.Elem():
		return kindInt64s, nil
	case stringsType.Elem():
		return kindStrings, nil
	default:
		return 0, ErrUnsupportedType
	}
}

// encodeInto packs the struct at p (a *T matching c.typ) into a, which it
// empties first, loading every field straight through its offset: the
// fixed-size prefix is the layout's records with the values stored at
// their offsets, and each field after it is Put in turn, appending, since
// the IDs ascend.
func (c *codec) encodeInto(a *wire.AttrSet, p unsafe.Pointer) {
	sec := a.FillLayout(&c.prefix)
	for i := range c.nfixed {
		f := &c.fields[i]
		fp := unsafe.Add(p, f.off)
		switch f.kind {
		case kindBool:
			var b byte
			if *(*bool)(fp) {
				b = 1
			}
			sec[f.at] = b
		case kindInt64, kindUint64, kindFloat64: // the wire value is the field's own bits
			binary.BigEndian.PutUint64(sec[f.at:], *(*uint64)(fp))
		default:
			binary.BigEndian.PutUint64(sec[f.at:], loadScalar(f.kind, fp))
		}
	}
	for i := c.nfixed; i < len(c.fields); i++ {
		f := &c.fields[i]
		fp := unsafe.Add(p, f.off)
		switch f.kind {
		case kindBool:
			a.PutBool(f.id, *(*bool)(fp))
		case kindString:
			a.PutString(f.id, *(*string)(fp))
		case kindBytes:
			a.PutBytes(f.id, *(*[]byte)(fp))
		case kindFloat64s:
			a.PutFloat64s(f.id, *(*[]float64)(fp))
		case kindInt64s:
			a.PutInt64s(f.id, *(*[]int64)(fp))
		case kindStrings:
			a.PutStrings(f.id, *(*[]string)(fp))
		default: // the numeric kinds: eight big-endian bytes, PutFloat64's layout as much as PutInt64's
			a.PutInt64(f.id, int64(loadScalar(f.kind, fp)))
		}
	}
}

// decodeInto unpacks an AttrSet into the struct at p (a *T matching
// c.typ). Every declared field must be present and well-sized, or the
// reflection is rejected: a silent partial fill would hand modules
// half-stale state.
//
// A set that opens with the codec's fixed-size prefix, as every set it
// encodes does, has those values loaded straight from their offsets in the
// section (wire.Layout); any other set — a hand-built one, a peer
// declaring other fields — has them read by ID, and so does every field
// after the prefix, strings and slices through wire's readers.
func (c *codec) decodeInto(a *wire.AttrSet, p unsafe.Pointer) error {
	byID := 0
	if sec, ok := a.MatchLayout(&c.prefix); ok {
		for i := range c.nfixed {
			f := &c.fields[i]
			fp := unsafe.Add(p, f.off)
			switch f.kind {
			case kindBool:
				*(*bool)(fp) = sec[f.at] != 0
			case kindInt64, kindUint64, kindFloat64:
				*(*uint64)(fp) = binary.BigEndian.Uint64(sec[f.at:])
			default:
				storeScalar(f.kind, fp, binary.BigEndian.Uint64(sec[f.at:]))
			}
		}
		byID = c.nfixed
	}
	for i := byID; i < len(c.fields); i++ {
		f := &c.fields[i]
		fp := unsafe.Add(p, f.off)
		v, ok := a.Bytes(f.id)
		if ok {
			switch f.kind {
			case kindBool:
				if ok = len(v) == 1; ok {
					*(*bool)(fp) = v[0] != 0
				}
			case kindString:
				*(*string)(fp) = string(v)
			case kindBytes:
				// v aliases the reflection's storage; the field gets its own copy.
				*(*[]byte)(fp) = append(make([]byte, 0, len(v)), v...)
			case kindFloat64s:
				var vs []float64
				if vs, ok = a.Float64s(f.id); ok {
					*(*[]float64)(fp) = vs
				}
			case kindInt64s:
				var vs []int64
				if vs, ok = a.Int64s(f.id); ok {
					*(*[]int64)(fp) = vs
				}
			case kindStrings:
				var vs []string
				if vs, ok = a.Strings(f.id); ok {
					*(*[]string)(fp) = vs
				}
			default: // the numeric kinds, eight bytes each
				if ok = len(v) == 8; ok {
					storeScalar(f.kind, fp, binary.BigEndian.Uint64(v))
				}
			}
		}
		if !ok {
			return fmt.Errorf("%w: %s.%s (attr %d)", ErrMissingAttr, c.typ, f.name, f.id)
		}
	}
	return nil
}

// loadScalar loads the numeric field at fp as its 8-byte wire value bits:
// integers travel as int64, floats as float64.
func loadScalar(kind fieldKind, fp unsafe.Pointer) uint64 {
	switch kind {
	case kindInt:
		return uint64(*(*int)(fp))
	case kindInt8:
		return uint64(*(*int8)(fp))
	case kindInt16:
		return uint64(*(*int16)(fp))
	case kindInt32:
		return uint64(*(*int32)(fp))
	case kindInt64:
		return uint64(*(*int64)(fp))
	case kindUint:
		return uint64(*(*uint)(fp))
	case kindUint8:
		return uint64(*(*uint8)(fp))
	case kindUint16:
		return uint64(*(*uint16)(fp))
	case kindUint32:
		return uint64(*(*uint32)(fp))
	case kindUint64:
		return *(*uint64)(fp)
	case kindFloat32:
		return math.Float64bits(float64(*(*float32)(fp)))
	default: // kindFloat64
		return math.Float64bits(*(*float64)(fp))
	}
}

// storeScalar is loadScalar's inverse: it stores the 8-byte wire value bits
// into the numeric field at fp.
func storeScalar(kind fieldKind, fp unsafe.Pointer, bits uint64) {
	switch kind {
	case kindInt:
		*(*int)(fp) = int(bits)
	case kindInt8:
		*(*int8)(fp) = int8(bits)
	case kindInt16:
		*(*int16)(fp) = int16(bits)
	case kindInt32:
		*(*int32)(fp) = int32(bits)
	case kindInt64:
		*(*int64)(fp) = int64(bits)
	case kindUint:
		*(*uint)(fp) = uint(bits)
	case kindUint8:
		*(*uint8)(fp) = uint8(bits)
	case kindUint16:
		*(*uint16)(fp) = uint16(bits)
	case kindUint32:
		*(*uint32)(fp) = uint32(bits)
	case kindUint64:
		*(*uint64)(fp) = bits
	case kindFloat32:
		*(*float32)(fp) = float32(math.Float64frombits(bits))
	case kindFloat64:
		*(*float64)(fp) = math.Float64frombits(bits)
	}
}
