// Package relstore implements the in-memory relational storage engine that
// stands in for DB2 in the EIL architecture. It provides typed tables,
// primary-key and secondary hash indexes, predicate scans, and row-level
// constraint checking. The SQL text interface lives in package sqlx, which
// parses a SQL subset and executes it against a relstore.DB.
//
// A DB is safe for concurrent use; statements take the engine lock for their
// duration (the coarse-grained locking a single-writer embedded store needs,
// and all EIL's synopsis workload requires).
package relstore

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the column types the engine supports.
type Type int

const (
	// TText is a UTF-8 string.
	TText Type = iota
	// TInt is a 64-bit signed integer.
	TInt
	// TFloat is a 64-bit IEEE float.
	TFloat
	// TBool is a boolean.
	TBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TText:
		return "TEXT"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single cell. The dynamic type is one of string, int64, float64,
// bool, or nil for SQL NULL.
type Value any

// Coerce converts v to column type t where a lossless-enough conversion
// exists (int→float, numeric string forms are NOT coerced; Go ints are
// widened to int64). It returns an error for impossible conversions.
func Coerce(v Value, t Type) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TText:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case TInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
		}
	case TFloat:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case TBool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("relstore: cannot coerce %T to %s", v, t)
}

// Compare orders two values of compatible types: -1, 0, +1. NULL sorts
// before everything. Numeric types compare across int/float. Comparing
// incompatible types returns an error.
func Compare(a, b Value) (int, error) {
	if a == nil && b == nil {
		return 0, nil
	}
	if a == nil {
		return -1, nil
	}
	if b == nil {
		return 1, nil
	}
	switch x := a.(type) {
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y), nil
		}
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpInt(x, y), nil
		case float64:
			return cmpFloat(float64(x), y), nil
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return cmpFloat(x, y), nil
		case int64:
			return cmpFloat(x, float64(y)), nil
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case x == y:
				return 0, nil
			case !x:
				return -1, nil
			default:
				return 1, nil
			}
		}
	}
	return 0, fmt.Errorf("relstore: cannot compare %T with %T", a, b)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports value equality under Compare semantics; incompatible types
// are unequal rather than an error.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// FormatValue renders a value for display: NULL, quoted text, or the Go
// literal form for numbers and booleans.
func FormatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// hashKey renders a value into a map key for hash indexes. Numeric values
// hash by their float image so 1 and 1.0 land in the same bucket,
// matching Compare.
func hashKey(v Value) string {
	switch x := v.(type) {
	case nil:
		return "\x00null"
	case string:
		return "s" + x
	case int64:
		return "n" + strconv.FormatFloat(float64(x), 'g', -1, 64)
	case float64:
		return "n" + strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "bt"
		}
		return "bf"
	default:
		return fmt.Sprintf("?%v", v)
	}
}
