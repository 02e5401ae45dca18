package constructs.annotations;

import java.lang.annotation.ElementType;
import java.lang.annotation.Retention;
import java.lang.annotation.RetentionPolicy;
import java.lang.annotation.Target;

/** An annotation type whose elements have defaults (JLS 9.6). */
@Retention(RetentionPolicy.RUNTIME)
@Target({ElementType.TYPE, ElementType.METHOD})
public @interface Config {
    int VERSION = 2;

    String name();

    int retries() default 3;

    String[] tags() default {"a", "b"};

    Class<?> type() default Object.class;

    Level level() default Level.LOW;

    enum Level { LOW, HIGH }
}
