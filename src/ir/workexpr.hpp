#pragma once

// Symbolic work expressions.
//
// Static feature extraction produces per-work-item operation counts that may
// depend on problem-size parameters (e.g. matmul executes 2*K fused
// multiply-adds per work item, where K is a kernel argument). We represent
// such counts as multivariate polynomials with double coefficients over
// named parameters. At launch time the runtime binds the parameters to the
// actual problem size, turning the static feature into a problem-size
// dependent *runtime feature* — exactly the static/dynamic feature split the
// paper describes.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tp::ir {

/// Sorted list of variable names (repetition encodes powers): {"K","K"} = K^2.
using Monomial = std::vector<std::string>;

class WorkExpr {
public:
  WorkExpr() = default;

  static WorkExpr constant(double c);
  static WorkExpr variable(const std::string& name);

  bool isZero() const noexcept { return terms_.empty(); }
  bool isConstant() const noexcept;
  /// Constant term (0 if absent).
  double constantTerm() const;

  WorkExpr operator+(const WorkExpr& o) const;
  WorkExpr operator-(const WorkExpr& o) const;
  WorkExpr operator*(const WorkExpr& o) const;
  WorkExpr operator*(double scale) const;
  WorkExpr& operator+=(const WorkExpr& o);

  bool operator==(const WorkExpr& o) const { return terms_ == o.terms_; }

  /// Evaluate with parameter bindings. Unknown parameters fall back to
  /// `defaultValue` (used for loops whose bounds are not size parameters).
  double eval(const std::map<std::string, double>& bindings,
              double defaultValue = 16.0) const;

  /// Names of all parameters appearing in the polynomial.
  std::vector<std::string> parameters() const;

  /// Highest total degree of any monomial (0 for constants).
  int degree() const;

  /// Highest power of `var` in any monomial.
  int degreeIn(const std::string& var) const;

  /// For polynomials linear in `var`: the coefficient polynomial (sum of all
  /// terms containing `var` exactly once, with that occurrence removed).
  WorkExpr coefficientOf(const std::string& var) const;

  /// Sum of all terms NOT containing `var`.
  WorkExpr without(const std::string& var) const;

  /// True if any monomial mentions `var`.
  bool contains(const std::string& var) const;

  /// Human-readable form, e.g. "2*K + 3" (deterministic term order).
  std::string toString() const;

  /// Canonical terms, in evaluation order.
  const std::map<Monomial, double>& terms() const noexcept { return terms_; }

private:
  void add(const Monomial& m, double coeff);

  // Canonical map from sorted monomial to coefficient; zero coefficients are
  // pruned eagerly so isZero()/operator== behave structurally.
  std::map<Monomial, double> terms_;
};

inline WorkExpr operator*(double scale, const WorkExpr& e) { return e * scale; }

/// A fixed list of WorkExprs compiled against one shared parameter-slot
/// table, for evaluating the same polynomials under many bindings without
/// string lookups or allocation. Parameters become indices into the slot
/// table (names in sorted order); terms keep WorkExpr's canonical order
/// and multiply their variables in monomial order, so eval() performs the
/// exact floating-point operations of WorkExpr::eval() and returns
/// bit-identical results under the same bindings.
class SlotProgram {
public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit SlotProgram(const std::vector<WorkExpr>& exprs);

  std::size_t numExprs() const noexcept { return exprBegin_.size() - 1; }
  std::size_t numSlots() const noexcept { return slotNames_.size(); }
  /// Slot of parameter `name` (slots follow sorted name order), or npos
  /// if no expression mentions it.
  std::size_t slotOf(std::string_view name) const;

  /// Fill `slots` (numSlots() values) from `bindings`; parameters without
  /// a binding get `defaultValue`, as in WorkExpr::eval().
  void bind(const std::map<std::string, double>& bindings,
            std::span<double> slots, double defaultValue = 16.0) const;

  /// Value of expression `expr` under bound `slots`.
  double eval(std::size_t expr, std::span<const double> slots) const;

private:
  struct Term {
    double coeff;
    std::uint32_t varBegin;  ///< [varBegin, varEnd) into vars_
    std::uint32_t varEnd;
  };

  std::vector<std::string> slotNames_;  ///< sorted
  std::vector<std::uint32_t> exprBegin_{0};  ///< term range of each expr
  std::vector<Term> terms_;
  std::vector<std::uint32_t> vars_;  ///< slot indices, monomial order
};

}  // namespace tp::ir
