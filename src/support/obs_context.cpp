#include "support/obs_context.hpp"

#include <utility>

namespace cdcs::support {
namespace {

/// The calling thread's scope stack top. A plain thread_local shared_ptr:
/// reading it is address arithmetic, no lock, no atomic RMW.
thread_local ObsScopeHandle t_current_scope;

const std::string& empty_path() {
  static const std::string empty;
  return empty;
}

}  // namespace

ObsScopeNode::ObsScopeNode(std::string label,
                           std::shared_ptr<const ObsScopeNode> parent)
    : label_(std::move(label)), parent_(std::move(parent)) {
  if (parent_ == nullptr) {
    path_ = label_;
  } else {
    path_.reserve(parent_->path().size() + 1 + label_.size());
    path_ = parent_->path();
    path_ += '/';
    path_ += label_;
  }
}

ObsScopeHandle current_obs_scope() { return t_current_scope; }

const std::string& current_obs_scope_path() {
  const ObsScopeNode* node = t_current_scope.get();
  return node == nullptr ? empty_path() : node->path();
}

ObsContext::ObsContext(std::string label)
    : node_(std::make_shared<ObsScopeNode>(std::move(label),
                                           t_current_scope)),
      prev_(t_current_scope) {
  t_current_scope = node_;
}

ObsContext::~ObsContext() { t_current_scope = prev_; }

ObsScopeGuard::ObsScopeGuard(ObsScopeHandle scope)
    : prev_(std::move(t_current_scope)) {
  t_current_scope = std::move(scope);
}

ObsScopeGuard::~ObsScopeGuard() { t_current_scope = std::move(prev_); }

}  // namespace cdcs::support
