#include "model/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace isoee::model {

namespace {

std::string fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Parsed document: section header -> (key -> value).
struct Document {
  std::string machine_header;  // "machine" if present
  std::map<std::string, std::string> machine;
  std::string workload_name;   // e.g. "FT" if a workload section is present
  std::map<std::string, std::string> workload;
};

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::optional<Document> parse_document(const std::string& text) {
  Document doc;
  std::map<std::string, std::string>* current = nullptr;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#') continue;
    if (line.front() == '[') {
      if (line.back() != ']') return std::nullopt;
      const std::string header = trim(line.substr(1, line.size() - 2));
      if (header == "machine") {
        doc.machine_header = header;
        current = &doc.machine;
      } else if (header.rfind("workload ", 0) == 0) {
        doc.workload_name = trim(header.substr(9));
        current = &doc.workload;
      } else {
        return std::nullopt;
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos || current == nullptr) return std::nullopt;
    (*current)[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
  return doc;
}

/// Strict number: the whole value is one finite number in strtod syntax.
std::optional<double> parse_number(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::string write_fields(std::string out, const Fields& fields) {
  for (const Field& f : fields) out += std::string(f.key) + " = " + fmt(f.get()) + "\n";
  return out;
}

/// Sets every field whose key is present; absent keys keep their defaults.
/// False when a key names no field (a typo would otherwise keep the default)
/// or a value is not a number the field can hold.
bool read_fields(const std::map<std::string, std::string>& kv, const Fields& fields) {
  for (const auto& [key, text] : kv) {
    const auto f = std::find_if(fields.begin(), fields.end(),
                                [&](const Field& field) { return key == field.key; });
    if (f == fields.end()) return false;
    const std::optional<double> v = parse_number(text);
    if (!v || !f->set(*v)) return false;
  }
  return true;
}

}  // namespace

std::string serialize(const MachineParams& m) {
  return write_fields("[machine]\nname = " + m.name + "\n", m.fields());
}

std::optional<MachineParams> parse_machine(const std::string& text) {
  auto doc = parse_document(text);
  if (!doc || doc->machine_header.empty()) return std::nullopt;
  MachineParams m;
  if (auto name = doc->machine.extract("name")) m.name = name.mapped();
  if (!read_fields(doc->machine, m.fields()) || !m.well_defined()) return std::nullopt;
  return m;
}

std::string serialize(const WorkloadModel& workload) {
  const Fields fields = workload.fields();
  if (fields.empty()) {
    throw std::invalid_argument("serialize: unknown workload type " + workload.name());
  }
  return write_fields("[workload " + workload.name() + "]\n", fields);
}

std::unique_ptr<WorkloadModel> parse_workload(const std::string& text) {
  const auto doc = parse_document(text);
  if (!doc || doc->workload_name.empty()) return nullptr;
  std::unique_ptr<WorkloadModel> w = make_workload(doc->workload_name);
  if (w == nullptr || !read_fields(doc->workload, w->fields())) return nullptr;
  return w;
}

bool save_calibration(const std::string& path, const MachineParams& machine,
                      const WorkloadModel& workload) {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize(machine) << "\n" << serialize(workload);
  return static_cast<bool>(out);
}

std::optional<CalibrationFile> load_calibration(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  auto machine = parse_machine(text);
  auto workload = parse_workload(text);
  if (!machine || !workload) return std::nullopt;
  CalibrationFile file;
  file.machine = *machine;
  file.workload = std::move(workload);
  return file;
}

}  // namespace isoee::model
