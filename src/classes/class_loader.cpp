#include "classes/class_loader.h"

#include "support/strf.h"

namespace ijvm {

ClassLoader::ClassLoader(ClassRegistry* registry, std::string name,
                         ClassLoader* parent, bool is_system)
    : registry_(registry), name_(std::move(name)), parent_(parent),
      is_system_(is_system) {}

JClass* ClassLoader::define(ClassDef def) { return registry_->link(this, std::move(def)); }

JClass* ClassLoader::findLocal(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = classes_.find(name);
  return it == classes_.end() ? nullptr : it->second;
}

JClass* ClassLoader::find(const std::string& name) {
  // Parent-first delegation, as the OSGi boot delegation does for java.*.
  if (parent_ != nullptr) {
    if (JClass* c = parent_->find(name)) return c;
  }
  return findLocal(name);
}

void ClassLoader::attachIsolate(Isolate* iso) {
  IJVM_CHECK(isolate_ == nullptr || isolate_ == iso,
             strf("loader %s already attached to an isolate", name_.c_str()));
  isolate_ = iso;
}

std::vector<JClass*> ClassLoader::definedClasses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JClass*> out;
  out.reserve(classes_.size());
  for (const auto& [_, c] : classes_) out.push_back(c);
  return out;
}

size_t ClassLoader::definedCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return classes_.size();
}

ClassRegistry::ClassRegistry() {
  system_loader_ = newLoader("<system>", nullptr, /*is_system=*/true);
}

ClassLoader* ClassRegistry::newLoader(const std::string& name, ClassLoader* parent,
                                      bool is_system) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (parent == nullptr && system_loader_ != nullptr) parent = system_loader_;
  loaders_.push_back(
      std::make_unique<ClassLoader>(this, name, parent, is_system));
  return loaders_.back().get();
}

JClass* ClassRegistry::link(ClassLoader* loader, ClassDef def) {
  IJVM_CHECK(loader->findLocal(def.name) == nullptr,
             strf("duplicate class %s in loader %s", def.name.c_str(),
                  loader->name().c_str()));

  // Resolve the superclass and interfaces up-front (bottom-up definition
  // order is required, as with real class files resolved eagerly).
  JClass* super = nullptr;
  if (!def.super_name.empty()) {
    super = loader->find(def.super_name);
    IJVM_CHECK(super != nullptr, strf("superclass %s of %s not found",
                                      def.super_name.c_str(), def.name.c_str()));
    IJVM_CHECK(!super->isInterface(),
               strf("superclass %s of %s is an interface", def.super_name.c_str(),
                    def.name.c_str()));
  }
  std::vector<JClass*> interfaces;
  for (const std::string& itf_name : def.interfaces) {
    JClass* itf = loader->find(itf_name);
    IJVM_CHECK(itf != nullptr && itf->isInterface(),
               strf("interface %s of %s not found", itf_name.c_str(),
                    def.name.c_str()));
    interfaces.push_back(itf);
  }

  auto cls = std::make_unique<JClass>();
  JClass* c = cls.get();
  c->name = def.name;
  c->super = super;
  c->interfaces = std::move(interfaces);
  c->loader = loader;
  c->flags = def.flags;
  c->pool = std::move(def.pool);

  // ---- field layout ----
  c->instance_slots = super != nullptr ? super->instance_slots : 0;
  if (super != nullptr) c->instance_template = super->instance_template;
  c->static_slots = 0;
  for (const FieldDef& fd : def.fields) {
    JField f;
    f.name = fd.name;
    f.type = parseTypeDesc(fd.descriptor);
    f.flags = fd.flags;
    f.owner = c;
    if (f.isStatic()) {
      f.slot = c->static_slots++;
    } else {
      f.slot = c->instance_slots++;
      c->instance_template.push_back(Value::zeroOf(f.type.kind));
    }
    c->fields.push_back(std::move(f));
  }

  // ---- methods & vtable ----
  if (super != nullptr) c->vtable = super->vtable;
  for (const MethodDef& md : def.methods) {
    // emplace + fill: JMethod is pinned (contains an atomic) and immovable.
    c->methods.emplace_back();
    JMethod* jm = &c->methods.back();
    jm->name = md.name;
    jm->descriptor = md.descriptor;
    jm->sig = parseMethodSig(md.descriptor);
    jm->flags = md.flags;
    jm->code = md.code;
    jm->owner = c;

    bool is_virtual = !jm->isStatic() && !jm->isPrivate() && !jm->isCtor() &&
                      !jm->isClinit() && !c->isInterface();
    if (is_virtual) {
      // Override slot from a superclass method with the same name+descriptor,
      // otherwise append a new slot.
      i32 slot = -1;
      if (super != nullptr) {
        if (JMethod* parent_m = super->findMethod(jm->name, jm->descriptor)) {
          if (parent_m->vtable_index >= 0) slot = parent_m->vtable_index;
        }
      }
      if (slot < 0) {
        slot = static_cast<i32>(c->vtable.size());
        c->vtable.push_back(jm);
      } else {
        c->vtable[static_cast<size_t>(slot)] = jm;
      }
      jm->vtable_index = slot;
    }
  }

  if (verify_hook_) verify_hook_(*c);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    classes_.push_back(std::move(cls));
  }
  {
    std::lock_guard<std::mutex> lock(loader->mutex_);
    loader->classes_.emplace(c->name, c);
  }
  return c;
}

JClass* ClassRegistry::arrayClass(const std::string& array_name) {
  IJVM_CHECK(!array_name.empty() && array_name[0] == '[',
             strf("not an array class name: %s", array_name.c_str()));
  if (JClass* existing = system_loader_->findLocal(array_name)) return existing;

  TypeDesc t = parseTypeDesc(array_name);

  auto cls = std::make_unique<JClass>();
  JClass* c = cls.get();
  c->name = array_name;
  c->super = system_loader_->find("java/lang/Object");
  c->loader = system_loader_;
  c->is_array = true;
  if (t.array_dims > 1) {
    // Element is itself an array.
    c->elem_kind = Kind::Ref;
    TypeDesc elem = t;
    elem.array_dims -= 1;
    c->elem_class = arrayClass(elem.toString());
  } else if (t.elem_kind == Kind::Ref) {
    c->elem_kind = Kind::Ref;
    c->elem_class = system_loader_->find(t.class_name);
    // Element classes outside the system loader: resolve lazily via
    // `resolve` below; store nullptr and match by name when needed. To keep
    // assignability sound we require the element class to exist.
    IJVM_CHECK(c->elem_class != nullptr,
               strf("array element class %s not found in system loader; "
                    "use resolve(ctx, ...) for bundle classes",
                    t.class_name.c_str()));
  } else {
    c->elem_kind = t.elem_kind;
  }
  if (c->super != nullptr) c->vtable = c->super->vtable;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    classes_.push_back(std::move(cls));
  }
  {
    std::lock_guard<std::mutex> lock(system_loader_->mutex_);
    system_loader_->classes_.emplace(c->name, c);
  }
  return c;
}

JClass* ClassRegistry::resolve(ClassLoader* ctx, const std::string& name) {
  if (name.empty()) return nullptr;
  if (name[0] == '[') {
    // Array class: element classes from bundle loaders get a per-loader
    // array class so assignability works with bundle types.
    TypeDesc t = parseTypeDesc(name);
    if (t.elem_kind == Kind::Ref && t.array_dims == 1) {
      JClass* elem = resolve(ctx, t.class_name);
      if (elem == nullptr) return nullptr;
      if (elem->loader != system_loader_) {
        // Define the array class in the element's loader.
        if (JClass* existing = elem->loader->findLocal(name)) return existing;
        auto cls = std::make_unique<JClass>();
        JClass* c = cls.get();
        c->name = name;
        c->super = system_loader_->find("java/lang/Object");
        c->loader = elem->loader;
        c->is_array = true;
        c->elem_kind = Kind::Ref;
        c->elem_class = elem;
        if (c->super != nullptr) c->vtable = c->super->vtable;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          classes_.push_back(std::move(cls));
        }
        {
          std::lock_guard<std::mutex> lock(elem->loader->mutex_);
          elem->loader->classes_.emplace(c->name, c);
        }
        return c;
      }
    }
    return arrayClass(name);
  }
  return ctx != nullptr ? ctx->find(name) : system_loader_->find(name);
}

std::vector<ClassLoader*> ClassRegistry::loaders() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ClassLoader*> out;
  out.reserve(loaders_.size());
  for (const auto& l : loaders_) out.push_back(l.get());
  return out;
}

void ClassRegistry::forEachClass(const std::function<void(JClass&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& c : classes_) fn(*c);
}

size_t ClassRegistry::totalMetadataBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = 0;
  for (const auto& c : classes_) bytes += c->metadataBytes();
  return bytes;
}

size_t ClassRegistry::classCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return classes_.size();
}

}  // namespace ijvm
