#include "ir/workexpr.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/str.hpp"

namespace tp::ir {

namespace {
constexpr double kEps = 1e-12;
}

WorkExpr WorkExpr::constant(double c) {
  WorkExpr e;
  e.add({}, c);
  return e;
}

WorkExpr WorkExpr::variable(const std::string& name) {
  TP_ASSERT(!name.empty());
  WorkExpr e;
  e.add({name}, 1.0);
  return e;
}

bool WorkExpr::isConstant() const noexcept {
  return terms_.empty() || (terms_.size() == 1 && terms_.begin()->first.empty());
}

double WorkExpr::constantTerm() const {
  const auto it = terms_.find({});
  return it == terms_.end() ? 0.0 : it->second;
}

void WorkExpr::add(const Monomial& m, double coeff) {
  if (std::fabs(coeff) < kEps) return;
  const auto [it, inserted] = terms_.emplace(m, coeff);
  if (!inserted) {
    it->second += coeff;
    if (std::fabs(it->second) < kEps) terms_.erase(it);
  }
}

WorkExpr WorkExpr::operator+(const WorkExpr& o) const {
  WorkExpr out = *this;
  out += o;
  return out;
}

WorkExpr& WorkExpr::operator+=(const WorkExpr& o) {
  for (const auto& [m, c] : o.terms_) add(m, c);
  return *this;
}

WorkExpr WorkExpr::operator-(const WorkExpr& o) const {
  WorkExpr out = *this;
  for (const auto& [m, c] : o.terms_) out.add(m, -c);
  return out;
}

WorkExpr WorkExpr::operator*(const WorkExpr& o) const {
  WorkExpr out;
  for (const auto& [ma, ca] : terms_) {
    for (const auto& [mb, cb] : o.terms_) {
      Monomial m = ma;
      m.insert(m.end(), mb.begin(), mb.end());
      std::sort(m.begin(), m.end());
      out.add(m, ca * cb);
    }
  }
  return out;
}

WorkExpr WorkExpr::operator*(double scale) const {
  WorkExpr out;
  for (const auto& [m, c] : terms_) out.add(m, c * scale);
  return out;
}

double WorkExpr::eval(const std::map<std::string, double>& bindings,
                      double defaultValue) const {
  double total = 0.0;
  for (const auto& [m, c] : terms_) {
    double term = c;
    for (const auto& var : m) {
      const auto it = bindings.find(var);
      term *= (it == bindings.end()) ? defaultValue : it->second;
    }
    total += term;
  }
  return total;
}

std::vector<std::string> WorkExpr::parameters() const {
  std::vector<std::string> out;
  for (const auto& [m, c] : terms_) {
    (void)c;
    for (const auto& var : m) {
      if (std::find(out.begin(), out.end(), var) == out.end()) {
        out.push_back(var);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int WorkExpr::degreeIn(const std::string& var) const {
  int deg = 0;
  for (const auto& [m, c] : terms_) {
    (void)c;
    deg = std::max(deg, static_cast<int>(std::count(m.begin(), m.end(), var)));
  }
  return deg;
}

WorkExpr WorkExpr::coefficientOf(const std::string& var) const {
  WorkExpr out;
  for (const auto& [m, c] : terms_) {
    const auto occurrences = std::count(m.begin(), m.end(), var);
    if (occurrences != 1) continue;
    Monomial reduced;
    bool removed = false;
    for (const auto& v : m) {
      if (!removed && v == var) {
        removed = true;
        continue;
      }
      reduced.push_back(v);
    }
    out.add(reduced, c);
  }
  return out;
}

WorkExpr WorkExpr::without(const std::string& var) const {
  WorkExpr out;
  for (const auto& [m, c] : terms_) {
    if (std::count(m.begin(), m.end(), var) == 0) out.add(m, c);
  }
  return out;
}

bool WorkExpr::contains(const std::string& var) const {
  for (const auto& [m, c] : terms_) {
    (void)c;
    if (std::count(m.begin(), m.end(), var) != 0) return true;
  }
  return false;
}

int WorkExpr::degree() const {
  int deg = 0;
  for (const auto& [m, c] : terms_) {
    (void)c;
    deg = std::max(deg, static_cast<int>(m.size()));
  }
  return deg;
}

std::string WorkExpr::toString() const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (const auto& [m, c] : terms_) {
    if (!first) os << " + ";
    first = false;
    if (m.empty()) {
      os << common::formatDouble(c);
      continue;
    }
    if (c != 1.0) os << common::formatDouble(c) << "*";
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (i > 0) os << "*";
      os << m[i];
    }
  }
  return os.str();
}

SlotProgram::SlotProgram(const std::vector<WorkExpr>& exprs) {
  for (const auto& e : exprs) {
    for (const auto& name : e.parameters()) slotNames_.push_back(name);
  }
  std::sort(slotNames_.begin(), slotNames_.end());
  slotNames_.erase(std::unique(slotNames_.begin(), slotNames_.end()),
                   slotNames_.end());

  for (const auto& e : exprs) {
    for (const auto& [m, c] : e.terms()) {
      Term t{c, static_cast<std::uint32_t>(vars_.size()), 0};
      for (const auto& var : m) {
        vars_.push_back(static_cast<std::uint32_t>(slotOf(var)));
      }
      t.varEnd = static_cast<std::uint32_t>(vars_.size());
      terms_.push_back(t);
    }
    exprBegin_.push_back(static_cast<std::uint32_t>(terms_.size()));
  }
}

std::size_t SlotProgram::slotOf(std::string_view name) const {
  const auto it = std::lower_bound(slotNames_.begin(), slotNames_.end(), name);
  if (it == slotNames_.end() || *it != name) return npos;
  return static_cast<std::size_t>(it - slotNames_.begin());
}

void SlotProgram::bind(const std::map<std::string, double>& bindings,
                       std::span<double> slots, double defaultValue) const {
  TP_ASSERT(slots.size() == slotNames_.size());
  // Both name lists are sorted: one merged pass, no per-slot lookup.
  auto it = bindings.begin();
  for (std::size_t s = 0; s < slotNames_.size(); ++s) {
    while (it != bindings.end() && it->first < slotNames_[s]) ++it;
    slots[s] = (it != bindings.end() && it->first == slotNames_[s])
                   ? it->second
                   : defaultValue;
  }
}

double SlotProgram::eval(std::size_t expr,
                         std::span<const double> slots) const {
  TP_ASSERT(expr < numExprs());
  // Same accumulation as WorkExpr::eval(): per term, coefficient times
  // each variable in monomial order, then summed in term order.
  double total = 0.0;
  for (std::uint32_t t = exprBegin_[expr]; t < exprBegin_[expr + 1]; ++t) {
    const Term& term = terms_[t];
    double value = term.coeff;
    for (std::uint32_t v = term.varBegin; v < term.varEnd; ++v) {
      value *= slots[vars_[v]];
    }
    total += value;
  }
  return total;
}

}  // namespace tp::ir
