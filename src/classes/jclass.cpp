#include "classes/jclass.h"

#include "classes/class_loader.h"
#include "support/strf.h"

namespace ijvm {

std::string JMethod::fullName() const {
  return strf("%s.%s%s", owner ? owner->name.c_str() : "?", name.c_str(),
              descriptor.c_str());
}

bool JClass::isSystemLib() const { return loader != nullptr && loader->isSystem(); }

TaskClassMirror& JClass::tcm(i32 isolate_index) {
  IJVM_CHECK(isolate_index >= 0, "negative isolate index");
  std::lock_guard<std::mutex> lock(tcm_mutex_);
  auto idx = static_cast<size_t>(isolate_index);
  if (idx >= tcms_.size()) tcms_.resize(idx + 1);
  if (!tcms_[idx]) {
    auto mirror = std::make_unique<TaskClassMirror>();
    mirror->statics.resize(static_cast<size_t>(static_slots));
    // Zero-initialize statics according to their declared kinds.
    for (const JField& f : fields) {
      if (f.isStatic()) {
        mirror->statics[static_cast<size_t>(f.slot)] = Value::zeroOf(f.type.kind);
      }
    }
    tcms_[idx] = std::move(mirror);
    republishTcms();
  }
  return *tcms_[idx];
}

void JClass::republishTcms() {
  auto snapshot = std::make_unique<TaskClassMirror*[]>(tcms_.size());
  for (size_t i = 0; i < tcms_.size(); ++i) snapshot[i] = tcms_[i].get();
  TaskClassMirror* const* raw = snapshot.get();
  tcm_retired_.push_back(std::move(snapshot));
  // Publish pointer first, then the (monotonically growing) size.
  tcm_published_.store(raw, std::memory_order_release);
  tcm_published_size_.store(static_cast<i32>(tcms_.size()),
                            std::memory_order_release);
}

TaskClassMirror* JClass::tcmIfPresent(i32 isolate_index) {
  std::lock_guard<std::mutex> lock(tcm_mutex_);
  auto idx = static_cast<size_t>(isolate_index);
  if (isolate_index < 0 || idx >= tcms_.size()) return nullptr;
  return tcms_[idx].get();
}

i32 JClass::tcmCount() const {
  std::lock_guard<std::mutex> lock(tcm_mutex_);
  i32 n = 0;
  for (const auto& t : tcms_) {
    if (t) ++n;
  }
  return n;
}

bool JClass::isSubclassOf(const JClass* other) const {
  for (const JClass* c = this; c != nullptr; c = c->super) {
    if (c == other) return true;
  }
  return false;
}

bool JClass::implementsInterface(const JClass* itf) const {
  for (const JClass* c = this; c != nullptr; c = c->super) {
    for (const JClass* i : c->interfaces) {
      if (i == itf || i->implementsInterface(itf)) return true;
    }
  }
  return false;
}

bool JClass::isAssignableTo(const JClass* target) const {
  if (this == target) return true;
  if (target->is_array) {
    if (!is_array) return false;
    if (elem_kind != Kind::Ref || target->elem_kind != Kind::Ref) {
      return elem_kind == target->elem_kind;
    }
    return elem_class != nullptr && target->elem_class != nullptr &&
           elem_class->isAssignableTo(target->elem_class);
  }
  if (is_array) {
    // Arrays are assignable to java/lang/Object only.
    return target->name == "java/lang/Object";
  }
  if (target->isInterface()) return implementsInterface(target);
  return isSubclassOf(target);
}

JField* JClass::findField(const std::string& field_name) {
  for (JClass* c = this; c != nullptr; c = c->super) {
    for (JField& f : c->fields) {
      if (f.name == field_name) return &f;
    }
  }
  return nullptr;
}

JField* JClass::findStaticField(const std::string& field_name) {
  JField* f = findField(field_name);
  return (f != nullptr && f->isStatic()) ? f : nullptr;
}

JMethod* JClass::findDeclared(const std::string& method_name,
                              const std::string& method_descriptor) {
  for (JMethod& m : methods) {
    if (m.name == method_name && m.descriptor == method_descriptor) return &m;
  }
  return nullptr;
}

JMethod* JClass::findMethod(const std::string& method_name,
                            const std::string& method_descriptor) {
  for (JClass* c = this; c != nullptr; c = c->super) {
    if (JMethod* m = c->findDeclared(method_name, method_descriptor)) return m;
  }
  // Interface default-less lookup: declaration only (for resolution).
  for (JClass* c = this; c != nullptr; c = c->super) {
    for (JClass* itf : c->interfaces) {
      if (JMethod* m = itf->findMethod(method_name, method_descriptor)) return m;
    }
  }
  return nullptr;
}

JMethod* JClass::resolveVirtual(const std::string& method_name,
                                const std::string& method_descriptor) {
  for (JClass* c = this; c != nullptr; c = c->super) {
    if (JMethod* m = c->findDeclared(method_name, method_descriptor)) {
      if (!m->isAbstract()) return m;
    }
  }
  return nullptr;
}

size_t JClass::metadataBytes() const {
  size_t bytes = sizeof(JClass);
  bytes += name.size();
  for (const JField& f : fields) bytes += sizeof(JField) + f.name.size();
  for (const JMethod& m : methods) {
    bytes += sizeof(JMethod) + m.name.size() + m.descriptor.size();
    bytes += m.code.insns.size() * sizeof(Instruction);
    bytes += m.code.handlers.size() * sizeof(ExHandler);
  }
  bytes += vtable.size() * sizeof(JMethod*);
  bytes += instance_template.size() * sizeof(Value);
  bytes += static_cast<size_t>(pool.size()) * sizeof(CpEntry);
  {
    std::lock_guard<std::mutex> lock(tcm_mutex_);
    // The TCM *array* itself is per-class memory that grows with the number
    // of isolates -- one of the two overhead sources of Figure 3.
    bytes += tcms_.capacity() * sizeof(std::unique_ptr<TaskClassMirror>);
    for (const auto& t : tcms_) {
      if (t) bytes += sizeof(TaskClassMirror) + t->statics.size() * sizeof(Value);
    }
  }
  return bytes;
}

}  // namespace ijvm
