package constructs.interfaces;

import java.util.function.Supplier;

/** An interface with abstract, default, static and private methods and a constant (JLS 9.4). */
public interface Greeter extends Supplier<String>, Comparable<Greeter> {
    String PREFIX = "Hello, ";

    String name();

    default String greet() {
        return decorate(PREFIX + name());
    }

    static Greeter of(String name) {
        return () -> name;
    }

    private String decorate(String text) {
        return text + "!";
    }

    private static String trim(String text) {
        return text.trim();
    }

    @Override
    default String get() {
        return greet();
    }
}
