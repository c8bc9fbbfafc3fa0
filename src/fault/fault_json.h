#pragma once
// Lossless JSON (de)serialization for fault plans — the persistence layer
// repro bundles and the shrinker are built on.
//
// The serializer is canonical: fixed field order, every field always
// emitted, times as integer nanosecond counts, doubles in shortest-round-
// trip form. That makes serialize → parse → re-serialize bitwise stable,
// which is what lets `mpdash_sim repro` verify a replay against the
// bundle byte-for-byte and lets the shrinker's determinism tests compare
// whole minimized bundles as strings.

#include <string>

#include "fault/fault.h"

namespace mpdash {

struct JsonValue;

// One event as a single-line JSON object:
//   {"kind":"blackout","at_ns":5000000000,"duration_ns":12000000000,
//    "path":0,"value":0,"ge":{"p_good_to_bad":0.05,...}}
std::string fault_event_to_json(const FaultEvent& e);

// Whole plan: {"events":[...]} with one event per line.
std::string fault_plan_to_json(const FaultPlan& plan);

// Inverse parsers. On failure return false and fill *error.
bool fault_event_from_json(const JsonValue& v, FaultEvent* out,
                           std::string* error);
bool fault_plan_from_json_value(const JsonValue& v, FaultPlan* out,
                                std::string* error);
bool fault_plan_from_json(const std::string& text, FaultPlan* out,
                          std::string* error);

}  // namespace mpdash
