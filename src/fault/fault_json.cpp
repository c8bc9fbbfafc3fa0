#include "fault/fault_json.h"

#include "util/enum_string.h"
#include "util/json.h"

namespace mpdash {

std::string fault_event_to_json(const FaultEvent& e) {
  std::string out = "{\"kind\":";
  out += json_quote(to_string(e.kind));
  out += ",\"at_ns\":" + std::to_string(e.at.count());
  out += ",\"duration_ns\":" + std::to_string(e.duration.count());
  out += ",\"path\":" + std::to_string(e.path_id);
  out += ",\"value\":" + json_double(e.value);
  out += ",\"ge\":{\"p_good_to_bad\":" + json_double(e.ge.p_good_to_bad);
  out += ",\"p_bad_to_good\":" + json_double(e.ge.p_bad_to_good);
  out += ",\"loss_good\":" + json_double(e.ge.loss_good);
  out += ",\"loss_bad\":" + json_double(e.ge.loss_bad);
  out += "}}";
  return out;
}

std::string fault_plan_to_json(const FaultPlan& plan) {
  std::string out = "{\"events\":[";
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += fault_event_to_json(plan.events[i]);
  }
  if (!plan.events.empty()) out += "\n";
  out += "]}";
  return out;
}

bool fault_event_from_json(const JsonValue& v, FaultEvent* out,
                           std::string* error) {
  if (!v.is_object()) {
    if (error) *error = "fault event: not an object";
    return false;
  }
  const JsonValue* kind = v.find("kind");
  if (kind == nullptr || !kind->is_string() ||
      !enum_from_string<FaultKind::kServerReset>(kind->str, &out->kind)) {
    if (error) {
      *error = "fault event: bad or missing \"kind\"" +
               (kind != nullptr && kind->is_string() ? " '" + kind->str + "'"
                                                     : std::string());
    }
    return false;
  }
  // Integer nanosecond counts round-trip exactly (no float in the path).
  const JsonFields f("fault event", error);
  if (!f.get(v, "at_ns", &out->at) ||
      !f.get(v, "duration_ns", &out->duration) ||
      !f.get(v, "path", &out->path_id, true) ||
      !f.get(v, "value", &out->value, true)) {
    return false;
  }
  const JsonValue* ge = v.find("ge");
  if (ge == nullptr) return true;
  if (!ge->is_object()) return f.bad("ge");
  return f.get(*ge, "ge.p_good_to_bad", &out->ge.p_good_to_bad) &&
         f.get(*ge, "ge.p_bad_to_good", &out->ge.p_bad_to_good) &&
         f.get(*ge, "ge.loss_good", &out->ge.loss_good) &&
         f.get(*ge, "ge.loss_bad", &out->ge.loss_bad);
}

bool fault_plan_from_json_value(const JsonValue& v, FaultPlan* out,
                                std::string* error) {
  if (!v.is_object()) {
    if (error) *error = "fault plan: not an object";
    return false;
  }
  const JsonValue* events = v.find("events");
  if (events == nullptr || !events->is_array()) {
    if (error) *error = "fault plan: missing \"events\" array";
    return false;
  }
  out->events.clear();
  out->events.reserve(events->items.size());
  for (const JsonValue& item : events->items) {
    FaultEvent e;
    if (!fault_event_from_json(item, &e, error)) return false;
    out->events.push_back(e);
  }
  return true;
}

bool fault_plan_from_json(const std::string& text, FaultPlan* out,
                          std::string* error) {
  JsonValue v;
  if (!json_parse(text, &v, error)) return false;
  return fault_plan_from_json_value(v, out, error);
}

}  // namespace mpdash
